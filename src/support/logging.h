/**
 * @file
 * Warnings from the library and its tools.
 *
 * Modeled on gem5's warn(): log output is advisory and never affects
 * simulation results.
 */

#ifndef SIDEWINDER_SUPPORT_LOGGING_H
#define SIDEWINDER_SUPPORT_LOGGING_H

#include <string>

namespace sidewinder {

/** Write @p message to stderr as one "[sidewinder:warn]" line. */
void warn(const std::string &message);

} // namespace sidewinder

#endif // SIDEWINDER_SUPPORT_LOGGING_H
