#include "sim/concurrent.h"

#include <cmath>

#include "hub/placer.h"
#include "il/lower.h"
#include "sim/replay.h"
#include "support/error.h"

namespace sidewinder::sim {

ConcurrentResult
simulateConcurrent(const trace::Trace &trace,
                   const std::vector<std::unique_ptr<apps::Application>> &apps,
                   const SimConfig &config)
{
    DeviceResult device =
        simulateDevice({DeviceDomain{&trace, &apps}}, config);
    DeviceDomainResult &domain = device.domains.front();
    ConcurrentResult result;
    result.averagePowerMw = device.averagePowerMw;
    result.timeline = device.timeline;
    result.mcuName = std::move(domain.mcuName);
    result.hubMw = domain.hubMw;
    result.hubNodeCount = domain.hubNodeCount;
    result.hubCyclesPerSecond = domain.hubCyclesPerSecond;
    result.apps = std::move(domain.apps);
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

    // Each domain's hub runs its apps' wake conditions on the MCU the
    // placer homes their combined load on; any trigger wakes the one
    // shared main CPU.
    DeviceResult result;
    PowerModel model = nexus4();
    std::vector<detail::HubDomain> hubs;
    for (const auto &domain : domains) {
        std::vector<const apps::Application *> apps;
        for (const auto &app : *domain.apps)
            apps.push_back(app.get());
        detail::HubDomain &hub_domain =
            hubs.emplace_back(*domain.trace, std::move(apps), config);
        std::vector<il::ExecutionPlan> conditions;
        for (const apps::Application *app : hub_domain.apps)
            conditions.push_back(il::lower(
                app->wakeCondition().compile(), hub_domain.channels,
                il::LowerOptions{config.shareHubNodes}));
        const il::ProgramCost load = detail::replayEngineHub(
            hub_domain, conditions, config.shareHubNodes);
        // Size the hub against the full budget set: a node mix that
        // fits the MSP430's cycle budget can still blow its 16 KB of
        // SRAM.
        const hub::PlacementDecision home =
            hub::homeConditions(conditions, load, hub::mcuExecutors());
        DeviceDomainResult &hub_result = result.domains.emplace_back();
        hub_result.mcuName = home.executorName;
        hub_result.hubMw = home.marginalPowerMw;
        hub_result.hubNodeCount = load.planNodeCount;
        hub_result.hubCyclesPerSecond = load.cyclesPerSecond;
        result.totalHubMw += hub_result.hubMw;
        model.hubMw += hub_result.hubMw;
    }

    DeviceTimeline timeline(total);
    const auto merged =
        detail::wakeWindows(timeline, hubs, model, result.timeline);
    result.averagePowerMw = result.timeline.averagePowerMw;
    for (std::size_t d = 0; d < hubs.size(); ++d) {
        for (std::size_t a = 0; a < hubs[d].apps.size(); ++a) {
            ConcurrentAppResult app;
            app.appName = hubs[d].apps[a]->name();
            detail::scoreApp(hubs[d], a, merged, app);
            result.domains[d].apps.push_back(std::move(app));
        }
    }
    return result;
}

} // namespace sidewinder::sim
