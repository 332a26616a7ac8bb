#include "support/logging.h"

#include <iostream>
#include <mutex>

namespace sidewinder {

namespace {

std::mutex logMutex;

const char *
levelName(LogLevel level)
{
    switch (level) {
      case LogLevel::Debug: return "debug";
      case LogLevel::Info: return "info";
      case LogLevel::Warn: return "warn";
      case LogLevel::Error: return "error";
    }
    return "?";
}

} // namespace

void
logMessage(LogLevel level, const std::string &message)
{
    if (level < LogLevel::Warn)
        return;
    std::scoped_lock lock(logMutex);
    std::cerr << "[sidewinder:" << levelName(level) << "] " << message
              << "\n";
}

} // namespace sidewinder
