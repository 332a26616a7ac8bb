#include "sim/concurrent.h"

#include <algorithm>
#include <cmath>
#include <map>

#include "hub/engine.h"
#include "hub/mcu.h"
#include "il/lower.h"
#include "sim/replay.h"
#include "support/error.h"

namespace sidewinder::sim {

namespace {

using AppList = std::vector<std::unique_ptr<apps::Application>>;

/** Hub trigger times per condition id (app index + 1). */
using Triggers = std::map<int, std::vector<double>>;

/**
 * Install every app's wake condition on @p engine (condition id = app
 * index + 1, lowered once — the install path the hub runtime uses at
 * admission) and size the hub against the full budget set: compute,
 * RAM, and the summed wake bound. A node mix that fits the MSP430's
 * cycle budget can still blow its 16 KB of SRAM.
 */
hub::McuModel
installConditions(hub::Engine &engine, const AppList &apps,
                  const std::vector<il::ChannelInfo> &channels,
                  bool share_nodes)
{
    double wake_bound_hz = 0.0;
    for (std::size_t a = 0; a < apps.size(); ++a) {
        const il::ExecutionPlan plan =
            il::lower(apps[a]->wakeCondition().compile(), channels,
                      il::LowerOptions{share_nodes});
        wake_bound_hz += plan.wakeRateBoundHz;
        engine.addCondition(static_cast<int>(a + 1), plan);
    }
    il::ProgramCost hub_load;
    hub_load.cyclesPerSecond = engine.estimatedCyclesPerSecond();
    hub_load.ramBytes = engine.estimatedRamBytes();
    hub_load.wakeRateBoundHz = wake_bound_hz;
    return hub::selectMcuForCost(hub_load);
}

/** Per-application classification over the shared awake windows. */
std::vector<ConcurrentAppResult>
scoreApps(const trace::Trace &trace, const AppList &apps,
          const Triggers &triggers, const std::vector<Interval> &merged,
          double lookback)
{
    std::vector<ConcurrentAppResult> results;
    for (std::size_t a = 0; a < apps.size(); ++a) {
        const auto &app = *apps[a];
        ConcurrentAppResult app_result;
        app_result.appName = app.name();
        const auto fired = triggers.find(static_cast<int>(a + 1));
        app_result.hubTriggerCount =
            fired != triggers.end() ? fired->second.size() : 0;
        detail::scoreDetections(
            app, trace.eventsOfType(app.eventType()),
            detail::classifyIntervals(trace, app, merged, lookback),
            app_result);
        results.push_back(std::move(app_result));
    }
    return results;
}

} // namespace

ConcurrentResult
simulateConcurrent(const trace::Trace &trace, const AppList &apps,
                   const SimConfig &config)
{
    if (apps.empty())
        throw ConfigError("concurrent simulation needs applications");
    trace.checkInvariants();

    // All applications must share the channel set (one hub).
    const auto channels = apps.front()->channels();
    for (const auto &app : apps) {
        const auto other = app->channels();
        if (other.size() != channels.size())
            throw ConfigError("concurrent apps must share channels");
        for (std::size_t i = 0; i < channels.size(); ++i)
            if (other[i].name != channels[i].name)
                throw ConfigError(
                    "concurrent apps must share channels");
    }

    hub::Engine engine(channels, config.shareHubNodes);
    const hub::McuModel mcu =
        installConditions(engine, apps, channels, config.shareHubNodes);
    ConcurrentResult result;
    result.hubNodeCount = engine.nodeCount();
    result.hubCyclesPerSecond = engine.estimatedCyclesPerSecond();
    result.mcuName = mcu.name;

    // Replay the trace; collect triggers per condition.
    Triggers triggers;
    detail::replayTrace(engine, trace, [&](const hub::WakeEvent &event) {
        triggers[event.conditionId].push_back(event.timestamp);
    });

    // One shared timeline: the CPU wakes when any condition fires.
    // The dwell and lookback honour the most demanding application.
    double event_dwell = config.eventDwellSeconds;
    double lookback = config.lookbackSeconds;
    for (const auto &app : apps) {
        if (config.eventDwellSeconds <= 0.0)
            event_dwell = std::max(
                event_dwell, app->recommendedEventDwellSeconds());
        if (config.lookbackSeconds <= 0.0)
            lookback = std::max(lookback,
                                app->recommendedLookbackSeconds());
    }

    PowerModel model = nexus4WithHub(mcu.activePowerMw);
    DeviceTimeline timeline(trace.durationSeconds());
    const double trans = model.transitionSeconds;
    for (const auto &[id, times] : triggers) {
        (void)id;
        for (double t : times)
            timeline.addAwakeInterval(t + trans,
                                      t + trans + event_dwell);
    }
    const auto merged = timeline.mergedIntervals(2.0 * trans - 1e-9);
    result.timeline = timeline.summarize(model);
    result.averagePowerMw = result.timeline.averagePowerMw;
    result.hubMw = mcu.activePowerMw;
    result.apps = scoreApps(trace, apps, triggers, merged, lookback);
    return result;
}

DeviceResult
simulateDevice(const std::vector<DeviceDomain> &domains,
               const SimConfig &config)
{
    if (domains.empty())
        throw ConfigError("device simulation needs domains");
    for (const auto &domain : domains) {
        if (domain.trace == nullptr || domain.apps == nullptr ||
            domain.apps->empty())
            throw ConfigError("device domain needs a trace and apps");
        domain.trace->checkInvariants();
    }
    const double total = domains.front().trace->durationSeconds();
    for (const auto &domain : domains)
        if (std::abs(domain.trace->durationSeconds() - total) > 1.0)
            throw ConfigError(
                "device domain traces must share a duration");

    DeviceResult result;
    PowerModel model = nexus4();
    DeviceTimeline timeline(total);
    const double trans = model.transitionSeconds;

    struct PendingDomain
    {
        const DeviceDomain *domain;
        Triggers triggers;
        double lookback = 0.0;
    };
    std::vector<PendingDomain> pending;

    // Run each domain's hub; accumulate triggers onto one timeline.
    for (const auto &domain : domains) {
        const auto &apps = *domain.apps;
        const auto channels = apps.front()->channels();

        hub::Engine engine(channels, config.shareHubNodes);
        const hub::McuModel mcu = installConditions(
            engine, apps, channels, config.shareHubNodes);
        DeviceDomainResult domain_result;
        domain_result.hubNodeCount = engine.nodeCount();
        domain_result.mcuName = mcu.name;
        domain_result.hubMw = mcu.activePowerMw;
        result.totalHubMw += mcu.activePowerMw;
        model.hubMw += mcu.activePowerMw;

        PendingDomain p;
        p.domain = &domain;
        double event_dwell = config.eventDwellSeconds;
        for (const auto &app : apps) {
            if (config.eventDwellSeconds <= 0.0)
                event_dwell = std::max(
                    event_dwell, app->recommendedEventDwellSeconds());
            p.lookback = std::max(
                p.lookback, config.lookbackSeconds > 0.0
                                ? config.lookbackSeconds
                                : app->recommendedLookbackSeconds());
        }

        detail::replayTrace(
            engine, *domain.trace, [&](const hub::WakeEvent &event) {
                p.triggers[event.conditionId].push_back(
                    event.timestamp);
                timeline.addAwakeInterval(
                    event.timestamp + trans,
                    event.timestamp + trans + event_dwell);
            });

        result.domains.push_back(std::move(domain_result));
        pending.push_back(std::move(p));
    }

    const auto merged = timeline.mergedIntervals(2.0 * trans - 1e-9);
    result.timeline = timeline.summarize(model);
    result.averagePowerMw = result.timeline.averagePowerMw;

    // Classify per app over the shared awake windows.
    for (std::size_t d = 0; d < pending.size(); ++d) {
        const auto &p = pending[d];
        result.domains[d].apps =
            scoreApps(*p.domain->trace, *p.domain->apps, p.triggers,
                      merged, p.lookback);
    }

    return result;
}

} // namespace sidewinder::sim
