#include "support/logging.h"

#include <iostream>
#include <mutex>

namespace sidewinder {

namespace {

std::mutex logMutex;

} // namespace

void
warn(const std::string &message)
{
    std::scoped_lock lock(logMutex);
    std::cerr << "[sidewinder:warn] " << message << "\n";
}

} // namespace sidewinder
