/**
 * @file
 * In-memory span recorder for the traced run of the end-to-end
 * benchmark. Spans are opened around calls the harness makes into the
 * src/ modules' public functions, kept in memory, and written out as
 * JSON lines when the run ends. Untraced passes never touch a Tracer.
 */

#ifndef SIDEWINDER_BENCH_E2E_TRACER_H
#define SIDEWINDER_BENCH_E2E_TRACER_H

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include "apps/app.h"

namespace e2e {

using Clock = std::chrono::steady_clock;

/** Seconds elapsed since @p begin. */
inline double
secondsSince(Clock::time_point begin)
{
    return std::chrono::duration<double>(Clock::now() - begin).count();
}

/** One timed call into a layer. */
struct Span
{
    /** Layer-qualified call name, e.g. "hub.ingest". */
    const char *name = "";
    /** Index of the span that caused this one; -1 at the root. */
    int parent = -1;
    /** Simulation cell (request) every span of one cell shares. */
    int cell = -1;
    /** Seconds since the tracer was created. */
    double start = 0.0;
    double end = 0.0;
    /** Samples or waves the call processed; 0 when not applicable. */
    std::uint64_t items = 0;
};

/** Per-name totals over the recorded spans. */
struct SpanTotals
{
    double seconds = 0.0;
    /** Duration minus the part covered by child spans. */
    double selfSeconds = 0.0;
    std::uint64_t calls = 0;
    std::uint64_t items = 0;
};

/** Single-threaded span store. */
class Tracer
{
  public:
    /** Open a span as a child of the innermost open span. */
    int open(const char *name);

    /** Close span @p id, recording @p items processed. */
    void close(int id, std::uint64_t items);

    /** Tag spans opened from now on with simulation cell @p cell. */
    void setCell(int cell) { currentCell = cell; }

    /** Totals of every span named @p name. */
    SpanTotals totals(const std::string &name) const;

    /** Write every span as one JSON object per line. */
    bool write(const std::string &path) const;

  private:
    Clock::time_point origin = Clock::now();
    std::vector<Span> spans;
    int current = -1;
    int currentCell = -1;
};

/** RAII span; does nothing when the tracer is null. */
class Scope
{
  public:
    Scope(Tracer *tracer, const char *name)
        : owner(tracer), id(tracer ? tracer->open(name) : -1)
    {
    }
    ~Scope()
    {
        if (owner)
            owner->close(id, items);
    }
    Scope(const Scope &) = delete;
    Scope &operator=(const Scope &) = delete;

    /** Samples or waves the spanned call processed. */
    void setItems(std::uint64_t n) { items = n; }

  private:
    Tracer *owner;
    int id;
    std::uint64_t items = 0;
};

/**
 * Forwards every call to @p inner and records each classify() as an
 * "apps.classify" span whose items are the classified samples — so the
 * phone-side classifier is timed inside cells the harness runs through
 * sim::simulate() as a whole.
 */
class TimedApp final : public sidewinder::apps::Application
{
  public:
    TimedApp(const sidewinder::apps::Application &inner, Tracer &tracer)
        : inner(inner), tracer(tracer)
    {
    }

    std::string name() const override { return inner.name(); }
    std::string eventType() const override { return inner.eventType(); }
    std::vector<sidewinder::il::ChannelInfo>
    channels() const override
    {
        return inner.channels();
    }
    sidewinder::core::ProcessingPipeline
    wakeCondition() const override
    {
        return inner.wakeCondition();
    }
    std::vector<double>
    classify(const sidewinder::trace::Trace &trace, std::size_t begin,
             std::size_t end) const override
    {
        Scope span(&tracer, "apps.classify");
        span.setItems(end > begin ? end - begin : 0);
        return inner.classify(trace, begin, end);
    }
    double matchTolerance() const override
    {
        return inner.matchTolerance();
    }
    double recommendedLookbackSeconds() const override
    {
        return inner.recommendedLookbackSeconds();
    }
    double recommendedEventDwellSeconds() const override
    {
        return inner.recommendedEventDwellSeconds();
    }
    bool coalesceDetections() const override
    {
        return inner.coalesceDetections();
    }

  private:
    const sidewinder::apps::Application &inner;
    Tracer &tracer;
};

} // namespace e2e

#endif // SIDEWINDER_BENCH_E2E_TRACER_H
