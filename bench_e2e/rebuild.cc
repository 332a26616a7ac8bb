#include "rebuild.h"

#include <algorithm>
#include <memory>
#include <stdexcept>
#include <string>

#include "apps/predefined.h"
#include "hub/fpga.h"
#include "hub/mcu.h"
#include "hub/placer.h"
#include "il/analyze.h"
#include "il/analyze_range.h"
#include "il/lower.h"
#include "il/parser.h"
#include "il/writer.h"
#include "metrics/events.h"
#include "sim/replay.h"
#include "support/error.h"

namespace e2e {

namespace sw = sidewinder;
using sw::sim::Strategy;

namespace {

/** The Predefined Activity condition simulate() installs for @p app. */
sw::core::ProcessingPipeline
predefinedCondition(const sw::apps::Application &app, double threshold)
{
    const auto channels = app.channels();
    if (channels.size() == 1 && channels.front().name == "AUDIO")
        return sw::apps::significantSoundCondition(
            threshold > 0.0 ? threshold : sw::apps::defaultSoundThreshold);
    return sw::apps::significantMotionCondition(
        threshold > 0.0 ? threshold : sw::apps::defaultMotionThreshold);
}

/** The placement space simulate() offers a Sidewinder condition. */
std::vector<sw::hub::ExecutorModel>
executorSpace(sw::sim::HubBackend backend)
{
    std::vector<sw::hub::ExecutorModel> space;
    switch (backend) {
      case sw::sim::HubBackend::Microcontroller:
        for (const auto &mcu : sw::hub::availableMcus())
            space.push_back(sw::hub::mcuExecutor(mcu));
        break;
      case sw::sim::HubBackend::Fpga:
        space.push_back(sw::hub::fpgaExecutor(sw::hub::ice40Hub()));
        break;
      case sw::sim::HubBackend::Heterogeneous:
        space = sw::hub::platformExecutors();
        break;
    }
    return space;
}

} // namespace

bool
rebuildable(const sw::sim::SimConfig &config)
{
    return !config.faults.any() &&
           (config.strategy == Strategy::PredefinedActivity ||
            config.strategy == Strategy::Sidewinder);
}

RebuiltCell
rebuildCell(const sw::trace::Trace &trace, const sw::apps::Application &app,
            const sw::sim::SimConfig &config, Tracer *tracer)
{
    if (!rebuildable(config))
        throw std::logic_error("only fault-free PA/Sw cells rebuild");
    Scope cell(tracer, "sim.cell");

    trace.checkInvariants();
    const double total = trace.durationSeconds();
    const auto truth = trace.eventsOfType(app.eventType());
    sw::sim::PowerModel model = sw::sim::nexus4();
    sw::sim::DeviceTimeline timeline(total);

    RebuiltCell out;
    out.shareNodes = config.shareHubNodes;
    sw::sim::SimResult &result = out.result;
    result.configName = sw::sim::strategyName(config.strategy,
                                              config.sleepIntervalSeconds);
    const double trans = model.transitionSeconds;
    const double event_dwell = config.eventDwellSeconds > 0.0
                                   ? config.eventDwellSeconds
                                   : app.recommendedEventDwellSeconds();
    const double lookback = config.lookbackSeconds > 0.0
                                ? config.lookbackSeconds
                                : app.recommendedLookbackSeconds();
    const bool sidewinder = config.strategy == Strategy::Sidewinder;

    const sw::core::ProcessingPipeline pipeline =
        sidewinder ? app.wakeCondition()
                   : predefinedCondition(app, config.predefinedThreshold);
    sw::il::Program program;
    {
        Scope span(tracer, "core.compile");
        program = pipeline.compile();
    }
    out.channels = app.channels();

    // The wire form the phone pushes: it must survive a round trip.
    std::string wire;
    {
        Scope span(tracer, "il.write");
        wire = sw::il::write(program);
    }
    sw::il::Program parsed;
    {
        Scope span(tracer, "il.parse");
        parsed = sw::il::parse(wire);
    }
    if (sw::il::write(parsed) != wire)
        throw std::runtime_error("IL wire form does not round-trip");
    bool analyzed = false;
    {
        Scope span(tracer, "il.analyze");
        analyzed = sw::il::analyze(program, out.channels).ok();
    }
    if (!analyzed)
        throw std::runtime_error("analyzer rejects the condition");

    if (sidewinder) {
        sw::il::ExecutionPlan plan;
        {
            Scope span(tracer, "il.lower");
            plan = sw::il::lower(program, out.channels);
        }
        const auto space = executorSpace(config.hubBackend);
        sw::hub::PlacementDecision home;
        {
            Scope span(tracer, "hub.place");
            home = sw::hub::placeCondition(plan, space);
        }
        if (!home.placed())
            throw sw::CapabilityError(
                "no hub executor can home the condition");
        model.hubMw = home.marginalPowerMw;
        result.mcuName = home.executorName;
        result.placement = home;
    } else {
        const sw::hub::McuModel mcu = sw::hub::msp430();
        model.hubMw = mcu.activePowerMw;
        result.mcuName = mcu.name;
    }

    {
        Scope span(tracer, "il.lower");
        out.plan = sw::il::lower(program, out.channels,
                                 sw::il::LowerOptions{out.shareNodes});
    }
    {
        Scope span(tracer, "il.ranges");
        (void)sw::il::analyzeRanges(out.plan);
    }

    std::unique_ptr<sw::hub::Engine> engine;
    {
        Scope span(tracer, "hub.install");
        engine = std::make_unique<sw::hub::Engine>(out.channels,
                                                   out.shareNodes);
        engine->addCondition(1, out.plan);
    }
    out.ramBytes = engine->estimatedRamBytes();

    {
        const auto mapping =
            sw::sim::detail::channelMapping(trace, out.channels);
        const std::size_t n = trace.sampleCount();
        std::vector<double> values(out.channels.size());
        Scope span(tracer, "hub.ingest");
        span.setItems(n);
        for (std::size_t i = 0; i < n; ++i) {
            for (std::size_t c = 0; c < mapping.size(); ++c)
                values[c] = trace.channels[mapping[c]][i];
            engine->pushSamples(values, trace.timeOf(i));
            for (const auto &event : engine->drainWakeEvents())
                out.wakes.push_back(event);
        }
    }

    result.hubTriggerCount = out.wakes.size();
    for (const auto &wake : out.wakes)
        timeline.addAwakeInterval(wake.timestamp + trans,
                                  wake.timestamp + trans + event_dwell);
    const auto merged = timeline.mergedIntervals(2.0 * trans - 1e-9);
    const auto detections =
        sw::sim::detail::classifyIntervals(trace, app, merged, lookback);
    result.meanDetectionLatencySeconds = sw::sim::detail::meanLatency(
        trace, app.eventType(), merged, lookback);

    result.timeline = timeline.summarize(model);
    result.averagePowerMw = result.timeline.averagePowerMw;
    result.hubMw = model.hubMw;
    {
        Scope span(tracer, "metrics.match");
        result.detection =
            app.coalesceDetections()
                ? sw::metrics::matchEventsCoalesced(truth, detections,
                                                    app.matchTolerance())
                : sw::metrics::matchEvents(truth, detections,
                                           app.matchTolerance());
    }
    result.recall = result.detection.recall();
    result.precision = result.detection.precision();

    out.intervals = merged.size();
    for (const auto &interval : merged)
        if (std::any_of(truth.begin(), truth.end(), [&](const auto &ev) {
                return ev.endTime >= interval.start - lookback &&
                       ev.startTime <= interval.end;
            }))
            ++out.usefulIntervals;
    return out;
}

std::vector<sw::hub::WakeEvent>
replayBlocks(const sw::trace::Trace &trace, const RebuiltCell &cell,
             std::size_t k, Tracer *tracer)
{
    sw::hub::Engine engine(cell.channels, cell.shareNodes);
    engine.addCondition(1, cell.plan);
    const auto mapping =
        sw::sim::detail::channelMapping(trace, cell.channels);
    const std::size_t n = trace.sampleCount();
    std::vector<double> block(mapping.size() * k);
    std::vector<double> stamps(k);
    std::vector<sw::hub::WakeEvent> wakes;

    Scope span(tracer, "hub.ingest_block");
    span.setItems(n);
    for (std::size_t i = 0; i < n; i += k) {
        const std::size_t count = std::min(k, n - i);
        for (std::size_t c = 0; c < mapping.size(); ++c)
            for (std::size_t w = 0; w < count; ++w)
                block[c * count + w] = trace.channels[mapping[c]][i + w];
        for (std::size_t w = 0; w < count; ++w)
            stamps[w] = trace.timeOf(i + w);
        engine.pushBlock(block.data(), count, stamps.data());
        for (const auto &event : engine.drainWakeEvents())
            wakes.push_back(event);
    }
    return wakes;
}

bool
sameResult(const sw::sim::SimResult &a, const sw::sim::SimResult &b)
{
    return a.configName == b.configName &&
           a.averagePowerMw == b.averagePowerMw &&
           a.hubTriggerCount == b.hubTriggerCount &&
           a.recall == b.recall && a.precision == b.precision &&
           a.detection.truePositives == b.detection.truePositives &&
           a.detection.falsePositives == b.detection.falsePositives &&
           a.detection.falseNegatives == b.detection.falseNegatives &&
           a.timeline.energyMj == b.timeline.energyMj &&
           a.timeline.awakeSeconds == b.timeline.awakeSeconds &&
           a.timeline.wakeUps == b.timeline.wakeUps &&
           a.meanDetectionLatencySeconds ==
               b.meanDetectionLatencySeconds &&
           a.mcuName == b.mcuName && a.hubMw == b.hubMw &&
           a.placement.executorName == b.placement.executorName &&
           a.placement.marginalPowerMw == b.placement.marginalPowerMw;
}

bool
sameWakes(const std::vector<sw::hub::WakeEvent> &a,
          const std::vector<sw::hub::WakeEvent> &b)
{
    return std::equal(a.begin(), a.end(), b.begin(), b.end(),
                      [](const auto &x, const auto &y) {
                          return x.conditionId == y.conditionId &&
                                 x.timestamp == y.timestamp &&
                                 x.value == y.value;
                      });
}

} // namespace e2e
