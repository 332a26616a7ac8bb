/**
 * @file
 * Minimal leveled logging for the library and its tools.
 *
 * Modeled on gem5's warn(): log output is advisory and never affects
 * simulation results. Everything below Warn is suppressed so that
 * benchmark output stays clean.
 */

#ifndef SIDEWINDER_SUPPORT_LOGGING_H
#define SIDEWINDER_SUPPORT_LOGGING_H

#include <sstream>
#include <string>

namespace sidewinder {

/** Severity levels, lowest to highest. */
enum class LogLevel { Debug, Info, Warn, Error };

/** Emit a single log line if @p level is Warn or above. */
void logMessage(LogLevel level, const std::string &message);

/** Convenience wrappers mirroring gem5's status-message helpers. */
inline void warn(const std::string &m) { logMessage(LogLevel::Warn, m); }
inline void logError(const std::string &m)
{
    logMessage(LogLevel::Error, m);
}

} // namespace sidewinder

#endif // SIDEWINDER_SUPPORT_LOGGING_H
