#include "sim/replay.h"

#include "hub/fpga.h"
#include "hub/mcu.h"
#include "il/lower.h"
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
    : trace(&trace), apps(std::move(apps)), triggers(this->apps.size())
{
    for (const apps::Application *app : this->apps) {
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
    HubDomain &domain, std::span<const il::Program> conditions,
    bool share_nodes,
    const std::function<HubChoice(const il::ProgramCost &)> &choose)
{
    // One hub samples one synchronous channel set.
    const auto channels = domain.apps.front()->channels();
    for (const apps::Application *app : domain.apps) {
        const auto other = app->channels();
        if (!std::equal(other.begin(), other.end(), channels.begin(),
                        channels.end(),
                        [](const il::ChannelInfo &a,
                           const il::ChannelInfo &b) {
                            return a.name == b.name;
                        }))
            throw ConfigError("apps on one hub must share channels");
    }

    // Size the hub against the full budget set: a node mix that fits
    // the MSP430's cycle budget can still blow its 16 KB of SRAM.
    hub::Engine engine(channels, share_nodes);
    il::ProgramCost load;
    for (std::size_t c = 0; c < conditions.size(); ++c) {
        const il::ExecutionPlan plan = il::lower(
            conditions[c], channels, il::LowerOptions{share_nodes});
        load.wakeRateBoundHz += plan.wakeRateBoundHz;
        engine.addCondition(static_cast<int>(c + 1), plan);
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
