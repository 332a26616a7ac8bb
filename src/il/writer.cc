#include "il/writer.h"

#include <charconv>
#include <cmath>

#include "support/error.h"

namespace sidewinder::il {

namespace {

/** Append @p value as writeParam() renders it. */
void
appendParam(std::string &out, double value)
{
    // Non-integers as %.17g, the bytes a precision(17) stream prints.
    char buf[32];
    char *end =
        std::isfinite(value) && value == std::floor(value) &&
                std::abs(value) < 1e15
            ? std::to_chars(buf, buf + sizeof buf,
                            static_cast<long long>(value))
                  .ptr
            : std::to_chars(buf, buf + sizeof buf, value,
                            std::chars_format::general, 17)
                  .ptr;
    out.append(buf, end);
}

} // namespace

std::string
writeParam(double value)
{
    std::string out;
    appendParam(out, value);
    return out;
}

std::string
write(const Program &program)
{
    std::string out;
    for (const auto &stmt : program.statements) {
        if (stmt.inputs.empty())
            throw ConfigError("IL statement has no inputs");
        for (std::size_t i = 0; i < stmt.inputs.size(); ++i) {
            if (i > 0)
                out += ',';
            const auto &src = stmt.inputs[i];
            if (src.kind == SourceRef::Kind::Channel)
                out += src.channel;
            else
                out += std::to_string(src.node);
        }
        if (stmt.isOut) {
            out += " -> OUT;\n";
            continue;
        }
        out += " -> ";
        out += stmt.algorithm;
        out += "(id=";
        out += std::to_string(stmt.id);
        if (!stmt.params.empty()) {
            out += ", params={";
            for (std::size_t i = 0; i < stmt.params.size(); ++i) {
                if (i > 0)
                    out += ',';
                appendParam(out, stmt.params[i]);
            }
            out += '}';
        }
        out += ");\n";
    }
    return out;
}

} // namespace sidewinder::il
