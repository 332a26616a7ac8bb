#include "sim/faults.h"

#include <algorithm>
#include <memory>
#include <span>

#include "core/sensor_manager.h"
#include "hub/mcu.h"
#include "hub/placer.h"
#include "hub/runtime.h"
#include "il/lower.h"
#include "sim/replay.h"
#include "sim/simulator.h"
#include "support/error.h"
#include "support/rng.h"

namespace sidewinder::sim {

namespace {

/** Line rate of the prototype's debug UART (Section 3.4). */
constexpr double uartBaudRate = 115200.0;

/** Beacon cadence the supervised runs use. */
constexpr double heartbeatIntervalSeconds = 1.0;

/** Silent beacons before the phone declares the hub dead. */
constexpr double missedBeatsThreshold = 3.0;

/**
 * Minimum spacing of wake-up frames per condition. A triggering
 * condition fires at sample rate; retransmitting every redundant
 * raw-data frame would overflow the reliable queue and crowd out
 * fresh wake-ups on a corrupted line (docs/fault-model.md).
 */
constexpr double wakeCoalesceSeconds = 1.0;

/** Records wake-up delivery times on the phone. */
class CollectingListener : public core::SensorEventListener
{
  public:
    explicit CollectingListener(std::vector<double> &out) : out(out) {}

    void
    onSensorEvent(const core::SensorData &data) override
    {
        out.push_back(data.timestamp);
    }

  private:
    std::vector<double> &out;
};

/** One stuck-sensor window resolved against the trace. */
struct StuckWindow
{
    std::size_t engineChannel = 0;
    double start = 0.0;
    double end = 0.0;
    double heldValue = 0.0;
};

std::vector<StuckWindow>
resolveStuckWindows(const FaultPlan &plan, const trace::Trace &trace,
                    const std::vector<std::size_t> &mapping)
{
    std::vector<StuckWindow> windows;
    const std::size_t n = trace.sampleCount();
    for (const auto &interval : plan.stuckSensors) {
        if (interval.channelIndex >= mapping.size())
            throw ConfigError(
                "stuck-sensor fault names channel " +
                std::to_string(interval.channelIndex) + "; app has " +
                std::to_string(mapping.size()));
        if (!(interval.endSeconds > interval.startSeconds))
            throw ConfigError("stuck-sensor window must be non-empty");
        StuckWindow w;
        w.engineChannel = interval.channelIndex;
        w.start = interval.startSeconds;
        w.end = interval.endSeconds;
        // The sensor freezes at whatever it last reported.
        const std::size_t at = std::min(
            detail::sampleAt(trace, interval.startSeconds), n - 1);
        w.heldValue = trace.channels[mapping[w.engineChannel]][at];
        windows.push_back(w);
    }
    return windows;
}

/**
 * Rebuild @p pipeline with every threshold-like parameter multiplied
 * by @p scale — the canonical "retune one knob" update. Covers the
 * *Threshold family plus the localMaxima/localMinima band bounds
 * (their refractory count is a structural knob, not a threshold, and
 * stays put). All other stages are copied verbatim, so their canonical
 * shareKeys (and hence the hub-side nodes and their state) are
 * preserved by the delta.
 */
core::ProcessingPipeline
scaleThresholds(const core::ProcessingPipeline &pipeline, double scale)
{
    auto rebuild = [scale](const core::Algorithm &algorithm) {
        std::vector<double> params = algorithm.params();
        if (algorithm.name().find("hreshold") != std::string::npos) {
            for (double &p : params)
                p *= scale;
        } else if (algorithm.name() == "localMaxima" ||
                   algorithm.name() == "localMinima") {
            for (std::size_t i = 0; i < params.size() && i < 2; ++i)
                params[i] *= scale;
        } else {
            return algorithm;
        }
        return core::Algorithm(algorithm.name(), std::move(params));
    };
    core::ProcessingPipeline scaled;
    for (const auto &branch : pipeline.branches()) {
        core::ProcessingBranch b(branch.channel());
        for (const auto &algorithm : branch.algorithms())
            b.add(rebuild(algorithm));
        scaled.add(std::move(b));
    }
    for (const auto &stage : pipeline.pipelineStages())
        scaled.add(rebuild(stage));
    return scaled;
}

} // namespace

bool
FaultPlan::any() const
{
    return byteCorruptionRate > 0.0 || frameDropRate > 0.0 ||
           !hubResetTimes.empty() || !stuckSensors.empty() ||
           !reconfigUpdates.empty();
}

void
armLink(transport::LinkPair &link, const FaultPlan &plan,
        std::shared_ptr<const bool> update_active)
{
    // One independent stream per hook, forked in a fixed order, so
    // the fault pattern is a pure function of the seed regardless of
    // traffic interleaving between the two directions.
    Rng root(plan.seed);
    auto p2h_corrupt = std::make_shared<Rng>(root.fork());
    auto p2h_drop = std::make_shared<Rng>(root.fork());
    auto h2p_corrupt = std::make_shared<Rng>(root.fork());
    auto h2p_drop = std::make_shared<Rng>(root.fork());

    const double corruption = plan.byteCorruptionRate;
    const double update_extra =
        update_active ? plan.updateCorruptionRate : 0.0;
    const double drop = plan.frameDropRate;

    if (corruption > 0.0 || update_extra > 0.0) {
        // The effective rate rises by updateCorruptionRate while an
        // update transaction is in flight (the flag the simulator
        // toggles), modelling lines that degrade exactly when the
        // reconfiguration traffic is on them.
        const double raised = corruption + update_extra;
        link.phoneToHub().setCorruptor(
            byteCorruptor(p2h_corrupt, corruption, raised, update_active));
        link.hubToPhone().setCorruptor(
            byteCorruptor(h2p_corrupt, corruption, raised, update_active));
    }
    if (drop > 0.0) {
        link.phoneToHub().setFrameDropper(
            [p2h_drop, drop]() { return p2h_drop->chance(drop); });
        link.hubToPhone().setFrameDropper(
            [h2p_drop, drop]() { return h2p_drop->chance(drop); });
    }
}

transport::UartLink::Corruptor
byteCorruptor(std::shared_ptr<Rng> rng, double rate, double raised_rate,
              std::shared_ptr<const bool> raised)
{
    // The flag only changes between sends, so one read per send picks
    // the threshold of each of its bytes. Each byte consumes one raw
    // output and a hit one more, for its bit, exactly as
    // chance(rate) followed by uniformInt(0, 7) would.
    const std::uint64_t base = Rng::chanceThreshold(rate);
    const std::uint64_t high = Rng::chanceThreshold(raised_rate);
    return [rng = std::move(rng), raised = std::move(raised), base,
            high](std::span<std::uint8_t> bytes) {
        const std::uint64_t cut = raised && *raised ? high : base;
        // An all-ones cut means every output hits, all-ones included.
        const bool every = cut == ~std::uint64_t{0};
        for (std::uint8_t &byte : bytes)
            if (rng->next() < cut || every)
                byte = static_cast<std::uint8_t>(
                    byte ^ (1u << rng->uniformInt(0, 7)));
    };
}

SimResult
simulateSupervised(const trace::Trace &trace,
                   const apps::Application &app, const SimConfig &config)
{
    trace.checkInvariants();
    if (config.strategy != Strategy::Sidewinder)
        throw ConfigError(
            "fault injection requires the Sidewinder strategy");
    if (config.hubBackend == HubBackend::Fpga)
        throw ConfigError("fault injection supports only the "
                          "microcontroller hub backend");

    const FaultPlan &plan = config.faults;
    const double total = trace.durationSeconds();

    PowerModel model = nexus4();
    DeviceTimeline timeline(total);
    SimResult result;
    result.configName =
        strategyName(config.strategy, config.sleepIntervalSeconds);
    const double trans = model.transitionSeconds;

    core::ProcessingPipeline pipeline = app.wakeCondition();
    detail::HubDomain domain(trace, {&app}, config);
    const std::vector<il::ChannelInfo> &channels = domain.channels;
    // The placement simulate() makes for this backend, so a supervised
    // run with no active faults stays bit-identical.
    const hub::PlacementDecision home = detail::placeOnBackend(
        il::lower(pipeline.compile(), channels), config.hubBackend);
    model.hubMw = home.marginalPowerMw;
    result.mcuName = home.executorName;
    result.placement = home;
    // The supervised transport stack models a microcontroller hub
    // runtime; a Heterogeneous run whose condition homed on the
    // fabric or the AP has no such runtime to supervise.
    const hub::McuModel *mcu_home = nullptr;
    for (const auto &m : hub::availableMcus())
        if (home.kind == hub::ExecutorKind::Mcu &&
            m.name == home.executorName)
            mcu_home = &m;
    if (mcu_home == nullptr)
        throw ConfigError("fault injection requires a microcontroller "
                          "home (placer chose " +
                          home.executorName + ")");
    const hub::McuModel mcu = *mcu_home;

    // The full transport + supervision stack the fault-free fast path
    // skips: framed UART with injected faults, reliable channel on
    // both sides, heartbeats, and the re-pushing supervisor.
    transport::LinkPair link(uartBaudRate);
    // Shared with the corruption hooks: true while an update
    // transaction is in flight, raising the line's error rate by
    // plan.updateCorruptionRate for the duration.
    auto update_active = std::make_shared<bool>(false);
    armLink(link, plan,
            plan.updateCorruptionRate > 0.0 ? update_active : nullptr);

    // A ~1.2 KB raw-data wake frame survives a 1e-3/byte line only
    // ~30% of the time. The defaults tuned for congestion (0.8 s
    // backoff cap, 8 attempts) are wrong for this dedicated line: one
    // doomed frame head-of-line-blocks the stop-and-wait channel for
    // ~9 s while fresh wake-ups pile up behind it, and the backlog is
    // flushed wholesale at the next brownout. Retry fast (the line is
    // idle while waiting anyway), keep the initial timeout above the
    // ack round trip to avoid spurious retransmits, and try hard
    // before surfacing a link-down verdict.
    transport::ReliableConfig reliableConfig;
    reliableConfig.ackTimeoutSeconds = 0.1;
    reliableConfig.maxBackoffSeconds = 0.15;
    reliableConfig.maxAttempts = 20;

    hub::HubRuntime hubRuntime(link, channels, mcu,
                               config.shareHubNodes);
    hubRuntime.enableReliableTransport(reliableConfig);
    hubRuntime.enableHeartbeats(heartbeatIntervalSeconds);
    hubRuntime.setWakeCoalescing(wakeCoalesceSeconds);

    core::SidewinderSensorManager manager(link, channels);
    manager.enableReliableTransport(reliableConfig);
    manager.enableSupervision(
        {heartbeatIntervalSeconds, missedBeatsThreshold}, 0.0);

    // The phone records every delivered wake-up as the app's trigger.
    CollectingListener listener(domain.triggers.front());
    const int condition_id = manager.push(pipeline, &listener, 0.0);

    const auto mapping = detail::channelMapping(trace, channels);
    const std::size_t n = trace.sampleCount();
    if (n == 0)
        throw ConfigError("cannot simulate an empty trace");
    const auto stuck = resolveStuckWindows(plan, trace, mapping);

    std::vector<double> resets = plan.hubResetTimes;
    std::sort(resets.begin(), resets.end());
    std::size_t next_reset = 0;
    bool hub_off = false;
    double hub_on_at = 0.0;

    // Live-reconfiguration driver: each scheduled update is attempted
    // when its time comes and re-attempted (under a fresh epoch) every
    // time the hub rolls it back, until it commits.
    std::vector<ReconfigUpdate> updates = plan.reconfigUpdates;
    std::sort(updates.begin(), updates.end(),
              [](const ReconfigUpdate &a, const ReconfigUpdate &b) {
                  return a.timeSeconds < b.timeSeconds;
              });
    std::size_t next_update = 0;
    // The update in progress, or null; points into 'updates'.
    const ReconfigUpdate *active_update = nullptr;
    std::uint32_t attempt_epoch = 0;

    std::vector<double> values(channels.size());
    for (std::size_t i = 0; i < n; ++i) {
        const double t = trace.timeOf(i);

        if (!hub_off && next_reset < resets.size() &&
            t >= resets[next_reset]) {
            hub_off = true;
            hub_on_at =
                resets[next_reset] + plan.hubResetDowntimeSeconds;
            ++next_reset;
            ++result.faults.hubResets;
        }
        if (hub_off && t >= hub_on_at) {
            hubRuntime.reboot(t);
            hub_off = false;
        }

        for (std::size_t c = 0; c < mapping.size(); ++c)
            values[c] = trace.channels[mapping[c]][i];
        for (const auto &w : stuck)
            if (t >= w.start && t < w.end)
                values[w.engineChannel] = w.heldValue;

        if (!hub_off) {
            hubRuntime.pollLink(t);
            hubRuntime.pushSamples(values, t);
        } else {
            // A dark hub cannot receive; bytes arriving now vanish.
            (void)link.phoneToHub().receive(t);
        }
        manager.poll(t);

        if (!active_update && next_update < updates.size() &&
            t >= updates[next_update].timeSeconds)
            active_update = &updates[next_update++];
        if (active_update) {
            if (attempt_epoch == 0) {
                // (Re)try once the hub is reachable and no earlier
                // transaction is still winding down.
                if (!manager.hubDown() && !hub_off &&
                    !manager.updateInProgress()) {
                    attempt_epoch = manager.beginUpdate(t);
                    manager.updateCondition(
                        condition_id,
                        scaleThresholds(pipeline,
                                        active_update->thresholdScale),
                        t);
                    manager.commitUpdate(t);
                }
            } else if (!manager.updateInProgress()) {
                if (manager.configEpoch() >= attempt_epoch)
                    active_update = nullptr;
                else
                    // Rolled back (corruption, stall, brownout):
                    // retry under a fresh epoch.
                    attempt_epoch = 0;
            }
        }
        *update_active = manager.updateInProgress();
    }

    // Downtime accounting closes at trace end, before the drain below
    // can move 'now' past it.
    result.faults.hubDownSeconds = manager.hubDownSeconds(total);

    // Duty-Cycling fallback (Strategy::DutyCycling semantics) inside
    // every window the phone presumed the hub dead: blind periodic
    // sampling keeps degraded recall instead of going blind entirely.
    std::vector<std::pair<double, double>> down_windows =
        manager.downWindows();
    if (const auto open = manager.openDownWindowStart())
        down_windows.emplace_back(*open, total);
    const double gap = std::max(config.sleepIntervalSeconds, 2.0 * trans);
    for (const auto &[start, end] : down_windows) {
        const double window_end = std::min(end, total);
        double awake_start = start + trans;
        while (awake_start < window_end) {
            const double awake_end = std::min(
                awake_start + kAwakeDwellSeconds, window_end);
            timeline.addAwakeInterval(awake_start, awake_end);
            result.faults.fallbackAwakeSeconds +=
                awake_end - awake_start;
            awake_start = awake_end + gap;
        }
    }
    result.faults.fallbackEnergyMj =
        result.faults.fallbackAwakeSeconds *
        (model.awakeMw - model.asleepMw);

    // Let in-flight frames (final wake-ups, re-push acks) drain; the
    // timeline clamps to [0, total] so this cannot distort energy.
    for (double t = total; t <= total + 1.0; t += 0.01) {
        if (hub_off && t >= hub_on_at) {
            hubRuntime.reboot(t);
            hub_off = false;
        }
        if (!hub_off)
            hubRuntime.pollLink(t);
        manager.poll(t);
    }

    const auto *phone_stats = manager.reliableStats();
    const auto *hub_stats = hubRuntime.reliableStats();
    result.faults.retransmits =
        phone_stats->retransmits + hub_stats->retransmits;
    result.faults.framesLost =
        phone_stats->framesLost + hub_stats->framesLost;
    result.faults.linkDownDeclared =
        phone_stats->framesLost > 0 || hub_stats->framesLost > 0;
    result.faults.framesDropped = link.phoneToHub().droppedFrames() +
                                  link.hubToPhone().droppedFrames();
    result.faults.bytesCorrupted = link.phoneToHub().corruptedBytes() +
                                   link.hubToPhone().corruptedBytes();
    result.faults.decoderDroppedBytes =
        hubRuntime.linkDropBytes() + manager.linkDropBytes();
    result.faults.repushedConditions =
        manager.supervisionStats().repushedConditions;
    result.faults.wakesCoalesced = hubRuntime.wakesCoalesced();
    // Reconfiguration accounting: transport-level stale refusals from
    // both endpoints plus the hub's message-level ones; transaction
    // outcomes from the phone (the side that owns the retry loop).
    result.faults.staleEpochFrames = phone_stats->staleEpochFrames +
                                     hub_stats->staleEpochFrames +
                                     hubRuntime.staleEpochMessages();
    const auto &recon = manager.reconfigStats();
    result.faults.updatesCommitted = recon.updatesCommitted;
    result.faults.updatesRolledBack = recon.updatesRolledBack;
    result.faults.reconfigDeltaBytes = recon.deltaWireBytes;
    result.faults.reconfigFullBytes = recon.fullPushWireBytes;
    result.faults.blindWindowSeconds =
        hubRuntime.lastBlindWindowSeconds();

    const auto merged = detail::wakeWindows(timeline, {&domain, 1}, model,
                                            result.timeline);
    result.averagePowerMw = result.timeline.averagePowerMw;
    result.hubMw = model.hubMw;
    detail::scoreApp(domain, 0, merged, result);
    return result;
}

} // namespace sidewinder::sim
