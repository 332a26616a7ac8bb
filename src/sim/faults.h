/**
 * @file
 * Deterministic fault injection for the trace-driven simulator.
 *
 * The paper evaluates Sidewinder in a fault-free lab setting
 * (Sections 4–5); real hub deployments see flipped bytes on the UART,
 * lost frames, hub brownouts and stuck sensors as the common case.
 * A FaultPlan describes a seeded, exactly-reproducible fault schedule;
 * armLink() turns it into the UartLink corruption/drop hooks, and
 * simulateSupervised() replays a trace through the full transport +
 * supervision stack (reliable channel, heartbeats, re-push,
 * Duty-Cycling fallback) under that schedule. See docs/fault-model.md
 * for the taxonomy and the recovery state machine.
 *
 * Determinism: every random decision draws from forks of one
 * Rng(plan.seed), so a (trace, app, config) triple maps to exactly one
 * result — the property the parallel sweep engine relies on.
 */

#ifndef SIDEWINDER_SIM_FAULTS_H
#define SIDEWINDER_SIM_FAULTS_H

#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "transport/link.h"

namespace sidewinder {
class Rng;
}
namespace sidewinder::trace {
struct Trace;
}
namespace sidewinder::apps {
class Application;
}

namespace sidewinder::sim {

struct SimConfig;
struct SimResult;

/** One sensor reporting a frozen value for a while. */
struct StuckSensorInterval
{
    /** Engine-order channel index (apps::Application::channels()). */
    std::size_t channelIndex = 0;
    /** Start of the stuck window, seconds. */
    double startSeconds = 0.0;
    /** End of the stuck window, seconds. */
    double endSeconds = 0.0;
};

/** One scheduled live-reconfiguration update during a run. */
struct ReconfigUpdate
{
    /** When the phone opens the update transaction, seconds. */
    double timeSeconds = 0.0;
    /**
     * Multiplier applied to every threshold parameter of the app's
     * wake condition. Everything upstream of the thresholds keeps its
     * canonical shareKeys, so the update travels as a small delta and
     * the unchanged subgraph carries its state across the swap.
     */
    double thresholdScale = 1.0;
};

/**
 * A seeded schedule of everything that goes wrong during one run.
 * The default-constructed plan injects nothing — and the simulator
 * guarantees a no-fault plan leaves every output bit-identical to a
 * run without the fault machinery.
 */
struct FaultPlan
{
    /** Probability each transmitted byte gets one bit flipped. */
    double byteCorruptionRate = 0.0;
    /** Probability a whole frame vanishes before serialization. */
    double frameDropRate = 0.0;
    /** Scheduled hub brownout times, seconds, ascending. */
    std::vector<double> hubResetTimes;
    /**
     * How long each brownout keeps the hub dark before it reboots
     * with empty state, seconds. Must exceed the supervisor's
     * miss-detection latency (heartbeat interval x missed-beat
     * threshold) for downtime/fallback metrics to register.
     */
    double hubResetDowntimeSeconds = 5.0;
    /** Sensors frozen at their last pre-fault value for a while. */
    std::vector<StuckSensorInterval> stuckSensors;
    /** Scheduled live-reconfiguration updates, times ascending. The
        phone retries a rolled-back update until it commits. */
    std::vector<ReconfigUpdate> reconfigUpdates;
    /**
     * Extra per-byte corruption applied only while an update
     * transaction is in flight — the "corruption during update" axis.
     * Stacks on top of byteCorruptionRate; no effect without
     * scheduled reconfigUpdates.
     */
    double updateCorruptionRate = 0.0;
    /** Seed of all fault randomness. */
    std::uint64_t seed = 0x5EED5EED;

    /** True when this plan injects any fault at all. */
    bool any() const;
};

/**
 * Install the plan's seeded corruption and frame-drop hooks on both
 * directions of @p link (the production caller of
 * UartLink::setCorruptor). Corruption flips one uniformly chosen bit
 * per affected byte. Each direction gets an independent stream forked
 * from plan.seed, so arming is order-independent and reproducible.
 *
 * @param update_active When non-null, plan.updateCorruptionRate is
 *     added to the per-byte corruption whenever *update_active is
 *     true — the simulator toggles it around update transactions.
 */
void armLink(transport::LinkPair &link, const FaultPlan &plan,
             std::shared_ptr<const bool> update_active = nullptr);

/**
 * The corruption hook armLink() installs on each direction. Every
 * byte of a send draws Rng::chance(rate) from @p rng, and a hit flips
 * bit Rng::uniformInt(0, 7) of it; the rate is @p raised_rate instead
 * for a send made while *@p raised is true (a null @p raised never
 * is). The hook compares each byte's raw draw with
 * Rng::chanceThreshold(rate), which consumes the same outputs and
 * decides every byte as chance(rate) would.
 */
transport::UartLink::Corruptor
byteCorruptor(std::shared_ptr<Rng> rng, double rate, double raised_rate,
              std::shared_ptr<const bool> raised);

/**
 * Replay @p trace for @p app under config.faults through the full
 * fault-tolerance stack: HubRuntime with heartbeats + brownouts,
 * SidewinderSensorManager with supervision + reliable transport, and
 * a Duty-Cycling fallback while the hub is presumed dead. Called by
 * simulate() whenever the plan injects faults; only the Sidewinder
 * strategy on the microcontroller backend is supported.
 */
SimResult simulateSupervised(const trace::Trace &trace,
                             const apps::Application &app,
                             const SimConfig &config);

} // namespace sidewinder::sim

#endif // SIDEWINDER_SIM_FAULTS_H
