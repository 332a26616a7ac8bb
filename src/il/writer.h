/**
 * @file
 * Serialization of IL programs to the textual wire format of
 * Figure 2c of the paper.
 */

#ifndef SIDEWINDER_IL_WRITER_H
#define SIDEWINDER_IL_WRITER_H

#include <string>

#include "il/ast.h"

namespace sidewinder::il {

/**
 * Render a whole program, one statement per line, e.g.
 * "1,2,3 -> vectorMagnitude(id=4);". @throws ConfigError on a
 * statement without inputs.
 */
std::string write(const Program &program);

/**
 * Render a numeric parameter the way the sensor manager ships it:
 * integers print without a decimal point ("10"), other values with
 * enough digits to round-trip ("0.25").
 */
std::string writeParam(double value);

} // namespace sidewinder::il

#endif // SIDEWINDER_IL_WRITER_H
