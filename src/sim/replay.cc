#include "sim/replay.h"

#include "hub/fpga.h"
#include "hub/mcu.h"
#include "support/error.h"

namespace sidewinder::sim::detail {

hub::PlacementDecision
placeOnBackend(const il::ExecutionPlan &plan, HubBackend backend)
{
    std::vector<hub::ExecutorModel> space;
    switch (backend) {
      case HubBackend::Microcontroller:
        for (const auto &mcu : hub::availableMcus())
            space.push_back(hub::mcuExecutor(mcu));
        break;
      case HubBackend::Fpga:
        space.push_back(hub::fpgaExecutor(hub::ice40Hub()));
        break;
      case HubBackend::Heterogeneous:
        space = hub::platformExecutors();
        break;
    }
    const hub::PlacementDecision home = hub::placeCondition(plan, space);
    if (home.placed())
        return home;
    if (backend == HubBackend::Fpga)
        throw CapabilityError("condition does not fit the FPGA fabric");
    // Re-derive selectMcu's diagnostic (names the binding budget);
    // unreachable when the space holds the always-feasible AP fallback.
    hub::selectMcuForCost(plan.cost());
    throw CapabilityError("no hub executor can home the condition");
}

HubDomain::HubDomain(const trace::Trace &trace,
                     std::vector<const apps::Application *> apps,
                     const SimConfig &config)
    : trace(&trace), apps(std::move(apps)),
      channels(this->apps.front()->channels()),
      triggers(this->apps.size())
{
    // One hub samples one synchronous channel set, at its trace's
    // rate.
    for (const il::ChannelInfo &ch : channels)
        if (ch.sampleRateHz != trace.sampleRateHz)
            throw ConfigError("channel '" + ch.name +
                              "' rate differs from the hub's trace");
    for (const apps::Application *app : this->apps) {
        if (app->channels() != channels)
            throw ConfigError("apps on one hub must share channels");
        dwell = std::max(dwell, app->recommendedEventDwellSeconds());
        lookback = std::max(lookback, app->recommendedLookbackSeconds());
    }
    if (config.eventDwellSeconds > 0.0)
        dwell = config.eventDwellSeconds;
    if (config.lookbackSeconds > 0.0)
        lookback = config.lookbackSeconds;
}

DeviceDomainResult
replayEngineHub(
    HubDomain &domain, std::span<const il::ExecutionPlan> conditions,
    bool share_nodes,
    const std::function<HubChoice(const il::ProgramCost &)> &choose)
{
    // Size the hub against the full budget set: a node mix that fits
    // the MSP430's cycle budget can still blow its 16 KB of SRAM.
    hub::Engine engine(domain.channels, share_nodes);
    il::ProgramCost load;
    for (std::size_t c = 0; c < conditions.size(); ++c) {
        load.wakeRateBoundHz += conditions[c].wakeRateBoundHz;
        engine.addCondition(static_cast<int>(c + 1), conditions[c]);
    }
    load.cyclesPerSecond = engine.estimatedCyclesPerSecond();
    load.ramBytes = engine.estimatedRamBytes();
    const HubChoice hub = choose(load);

    DeviceDomainResult result;
    result.mcuName = hub.name;
    result.hubMw = hub.powerMw;
    result.hubNodeCount = engine.nodeCount();
    result.hubCyclesPerSecond = load.cyclesPerSecond;
    replayTrace(engine, *domain.trace, [&](const hub::WakeEvent &event) {
        domain.triggers[event.conditionId - 1].push_back(event.timestamp);
    });
    return result;
}

std::vector<Interval>
wakeWindows(DeviceTimeline &timeline, std::span<const HubDomain> domains,
            const PowerModel &model, TimelineSummary &priced)
{
    const double trans = model.transitionSeconds;
    for (const HubDomain &domain : domains)
        for (const auto &times : domain.triggers)
            for (double t : times)
                timeline.addAwakeInterval(t + trans,
                                          t + trans + domain.dwell);
    priced = timeline.summarize(model);
    return timeline.mergedIntervals(2.0 * trans - 1e-9);
}

} // namespace sidewinder::sim::detail
