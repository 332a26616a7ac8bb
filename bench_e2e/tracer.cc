#include "tracer.h"

#include <cstdio>

namespace e2e {

int
Tracer::open(const char *name)
{
    Span span;
    span.name = name;
    span.parent = current;
    span.cell = currentCell;
    span.start = secondsSince(origin);
    spans.push_back(span);
    current = static_cast<int>(spans.size()) - 1;
    return current;
}

void
Tracer::close(int id, std::uint64_t items)
{
    Span &span = spans[static_cast<std::size_t>(id)];
    span.end = secondsSince(origin);
    span.items = items;
    current = span.parent;
}

SpanTotals
Tracer::totals(const std::string &name) const
{
    std::vector<double> childSeconds(spans.size(), 0.0);
    for (const Span &span : spans)
        if (span.parent >= 0)
            childSeconds[static_cast<std::size_t>(span.parent)] +=
                span.end - span.start;

    SpanTotals out;
    for (std::size_t i = 0; i < spans.size(); ++i) {
        const Span &span = spans[i];
        if (name != span.name)
            continue;
        const double seconds = span.end - span.start;
        out.seconds += seconds;
        out.selfSeconds += seconds - childSeconds[i];
        out.calls += 1;
        out.items += span.items;
    }
    return out;
}

bool
Tracer::write(const std::string &path) const
{
    std::FILE *out = std::fopen(path.c_str(), "w");
    if (!out)
        return false;
    for (const Span &span : spans)
        std::fprintf(out,
                     "{\"name\": \"%s\", \"parent\": %d, \"cell\": %d, "
                     "\"start_s\": %.9f, \"end_s\": %.9f, "
                     "\"items\": %llu}\n",
                     span.name, span.parent, span.cell, span.start,
                     span.end,
                     static_cast<unsigned long long>(span.items));
    return std::fclose(out) == 0;
}

} // namespace e2e
