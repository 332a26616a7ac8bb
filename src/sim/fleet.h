/**
 * @file
 * Fleet-scale hub farm: one process multiplexing thousands of
 * simulated Sidewinder devices.
 *
 * The paper evaluates one device at a time; production-scale backends
 * ("From Sensors to Insight"-style edge-to-core aggregation, Global
 * Sensor Network middleware — PAPERS.md) multiplex huge sensor
 * populations behind one process. FleetRuntime composes the pieces
 * earlier PRs made safe for exactly this:
 *
 *  - every device is an hub::Engine plus a trace cursor and
 *    power/fault state, admitted per-device through the plan-based
 *    Engine::marginalCost against an MCU budget;
 *  - devices are grouped into fixed shards fanned across a
 *    support::ThreadPool (the PR 2 pool) — sharding is configuration,
 *    not scheduling, so results are bit-identical at any thread
 *    count;
 *  - trace ingestion is per-shard batches through Engine::pushBlock
 *    (the PR 6 node-major block path is the fleet hot loop);
 *  - wake-up conditions are interned in a fleet-wide
 *    hub::FleetPlanCache — hash-consing promoted from per-engine to
 *    cross-tenant, so a skewed app mix lowers a handful of plans for
 *    the whole population. Engines share the immutable plan's
 *    constant SoA arrays and instantiate their own kernels and state
 *    lanes locally, keeping install-time cached-input pointers
 *    address-stable per tenant;
 *  - admission is placer-mediated homing (hub/placer.h): each device
 *    owns a negotiated-congestion placer over the fleet's executor
 *    set (MCUs, FPGAs, AP-fallback) with exact capacity ledgers, so
 *    "admit" means "found a home under every budget" and installs
 *    may re-home earlier conditions to make room. The common
 *    first-install verdict is memoized per canonical plan in the
 *    fleet cache. An empty executor set degenerates to the classic
 *    single-MCU accept/reject, bit-for-bit.
 */

#ifndef SIDEWINDER_SIM_FLEET_H
#define SIDEWINDER_SIM_FLEET_H

#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <vector>

#include "apps/app.h"
#include "hub/engine.h"
#include "hub/mcu.h"
#include "hub/placer.h"
#include "hub/plan_cache.h"
#include "support/thread_pool.h"
#include "trace/types.h"

namespace sidewinder::sim {

/** One entry of the fleet's application mix. */
struct FleetAppMix
{
    /** The application whose wake-up condition tenants install. */
    const apps::Application *app = nullptr;
    /** Relative share of the population (need not sum to 1). */
    double weight = 1.0;
};

/** Parameters of a fleet. */
struct FleetConfig
{
    /** Simulated devices (tenants). */
    std::size_t deviceCount = 0;
    /**
     * Devices per shard. Sharding is part of the configuration — the
     * device->shard mapping, and therefore every result bit, is
     * independent of the worker count that happens to execute it.
     */
    std::size_t devicesPerShard = 64;
    /** Waves per Engine::pushBlock call (the ingestion batch size). */
    std::size_t blockSamples = 64;
    /** Trace seconds each device ingests per run() call. */
    double secondsPerDevice = 4.0;
    /** Master seed for app assignment, cursors, and fault draws. */
    std::uint64_t seed = 1;
    /** Conditions each device installs (drawn i.i.d. from the mix). */
    std::size_t conditionsPerDevice = 1;
    /**
     * Intern conditions in the fleet-wide plan cache. false lowers
     * per tenant (the ablation baseline the cache is measured
     * against); per-device results are identical either way.
     */
    bool shareAcrossTenants = true;
    /** Cross-condition node sharing inside each engine. */
    bool sharePerEngine = true;
    /** Per-channel raw history per device (hub::Engine). */
    std::size_t rawBufferSize = 64;
    /** Per-device admission budget (compute + RAM) when `executors`
     *  is empty — the single-MCU fleet every earlier PR ran. */
    hub::McuModel mcu;
    /**
     * Heterogeneous placement space each device homes conditions
     * onto via the negotiated-congestion placer (hub/placer.h).
     * Empty (the default) places onto `mcu` alone, which preserves
     * the classic accept/reject admission bit-for-bit; pass
     * hub::platformExecutors() for MCU+FPGA+AP homing.
     */
    std::vector<hub::ExecutorModel> executors;
    /**
     * Fraction of devices that suffer one brownout (hub state loss,
     * Engine::resetState) halfway through their run — the fleet-level
     * echo of the PR 4 fault model. 0 disables.
     */
    double brownoutFraction = 0.0;

    FleetConfig() : mcu(hub::msp430()) {}
};

/** Per-device outcome, in device order. */
struct FleetDeviceStats
{
    /** Index into the app mix this device drew. */
    int appIndex = -1;
    /** Conditions that passed admission. */
    std::uint32_t conditionsAdmitted = 0;
    /** Conditions rejected by the MCU budget. */
    std::uint32_t conditionsRejected = 0;
    /** True when the device's brownout draw fired this run. */
    bool brownedOut = false;
    /** Waves ingested so far. */
    std::size_t samplesIngested = 0;
    /** Wake-ups raised so far. */
    std::size_t wakeEvents = 0;
    /** Order-sensitive FNV over every wake event (id, t, value). */
    std::uint64_t wakeDigest = 1469598103934665603ULL;
    /** Timestamp of the most recent wake-up; -1 when none. */
    double lastWakeTimestamp = -1.0;
    /** Modeled hub energy: placed hub power x ingested seconds, mJ. */
    double hubEnergyMj = 0.0;
    /** Modeled engine RAM (state + results), bytes. */
    std::size_t ramBytes = 0;
    /** Executor-set index homing the device's first condition; -1
     *  before any install. */
    int homeExecutor = -1;
    /** Placed hub power (active + dynamic over occupied executors),
     *  mW. Equals the admission MCU's active power for single-MCU
     *  fleets. */
    double hubPowerMw = 0.0;
};

/** Aggregated fleet outcome. */
struct FleetResult
{
    std::size_t deviceCount = 0;
    std::size_t shardCount = 0;
    /** Sum of per-device samplesIngested. */
    std::size_t samplesIngested = 0;
    /** Sum of per-device wakeEvents. */
    std::size_t wakeEvents = 0;
    /** Devices with every condition admitted. */
    std::size_t admittedDevices = 0;
    /** Devices with at least one rejected condition. */
    std::size_t rejectedDevices = 0;
    /** Devices that browned out. */
    std::size_t brownouts = 0;
    /** Sum of per-device modeled RAM, bytes. */
    std::size_t modeledRamBytes = 0;
    /** Sum of per-device hub energy, mJ. */
    double hubEnergyMj = 0.0;
    /** Sum of per-device placed hub power, mW. */
    double fleetPowerMw = 0.0;
    /** Conditions homed per executor-set index, fleet-wide. */
    std::vector<std::size_t> executorConditions;
    /** Plan-cache accounting (zeros when sharing is disabled). */
    hub::PlanCacheStats cache;
    /**
     * Order-sensitive digest over every per-device field — two runs
     * are field-for-field identical iff their digests match (tests
     * still compare fields for diagnosability).
     */
    std::uint64_t digest = 0;
    std::vector<FleetDeviceStats> devices;
};

/**
 * A population of simulated devices sharing one process, one thread
 * pool, and one plan cache.
 *
 * Lifecycle: construct, build() once, then run() one or more times
 * (each run ingests another FleetConfig::secondsPerDevice per
 * device); collect() at any point between calls. build() and run()
 * fan shards across the given pool; everything else is
 * single-threaded.
 *
 * Determinism: app assignment, cursors, and fault draws are pure
 * functions of (seed, device index); shards are processed
 * independently and each shard's devices serially; results live in
 * per-device slots. collect() is therefore bit-identical for any
 * worker count, and the plan-cache counters are exact (see
 * hub/plan_cache.h).
 */
class FleetRuntime
{
  public:
    /**
     * @param config Fleet parameters (deviceCount must be > 0).
     * @param mix Application mix; every app must use the same channel
     *     set (one fleet models one synchronous sensor domain).
     * @param fleet_trace Recording every device replays (each device
     *     starts at its own seeded cursor offset and wraps). Must
     *     contain every channel the mix's apps read and outlive the
     *     runtime.
     * @throws ConfigError on an empty mix/population or mismatched
     *     app channel sets.
     */
    FleetRuntime(FleetConfig config, std::vector<FleetAppMix> mix,
                 const trace::Trace &fleet_trace);

    /**
     * Instantiate every device and admit/install its conditions
     * (parallel across shards on @p pool).
     */
    void build(support::ThreadPool &pool);

    /** build() on the process-wide shared pool. */
    void build();

    /**
     * Ingest FleetConfig::secondsPerDevice of trace per device in
     * blockSamples batches (parallel across shards on @p pool).
     */
    void run(support::ThreadPool &pool);

    /** run() on the process-wide shared pool. */
    void run();

    /** Deterministic aggregation of every device's stats. */
    FleetResult collect() const;

    std::size_t deviceCount() const { return devices.size(); }
    std::size_t shardCount() const;

    /** Shard owning @p device (device / devicesPerShard). */
    std::size_t shardOf(std::size_t device) const;

    /** Mix index @p device drew (fixed at construction). */
    int deviceAppIndex(std::size_t device) const;

    /**
     * Install @p app's wake-up condition as @p condition_id on one
     * tenant, through the fleet cache and admission control, after
     * build(). Single-threaded (management plane, not the hot loop).
     *
     * @return true when admitted and installed; false when the MCU
     *     budget rejected it (nothing changes).
     */
    bool installCondition(std::size_t device, int condition_id,
                          const apps::Application &app);

    /** Remove a condition installed on @p device, releasing its plan
     *  reference and RAM accounting. */
    void removeCondition(std::size_t device, int condition_id);

    /** The fleet-wide plan cache (accounting, tests). */
    const hub::FleetPlanCache &planCache() const { return cache; }

    /** The resolved placement space (config.executors, or the
     *  single-MCU default). */
    const std::vector<hub::ExecutorModel> &executorSet() const
    {
        return executors;
    }

    /**
     * Where @p condition_id of @p device is homed. Throws ConfigError
     * when the condition is not installed. Decisions can change on
     * later installs — the placer may re-home existing conditions to
     * make room (never breaking capacity).
     */
    const hub::PlacementDecision &placementOf(std::size_t device,
                                              int condition_id) const;

  private:
    struct Device
    {
        std::unique_ptr<hub::Engine> engine;
        /** The device's placement engine: executor demand rows for
         *  every admitted condition, in placedOrder. */
        std::unique_ptr<hub::Placer> placer;
        /** Plan references keeping cached plans alive per tenant. */
        std::map<int, hub::FleetPlanCache::PlanPtr> installed;
        /** Admitted wake-rate bound per condition (proven when the
         *  range analyzer tightened it, else syntactic). */
        std::map<int, double> wakeHzByCondition;
        /** Condition ids in placer-slot order. */
        std::vector<int> placedOrder;
        /** Current home of every admitted condition. */
        std::map<int, hub::PlacementDecision> placements;
        /** Placed hub power, mW (mirrored into stats). */
        double hubPowerMw = 0.0;
        /** Sum of wakeHzByCondition: the device's admitted wake
         *  load against McuModel::wakeBudgetHz. */
        double wakeLoadHz = 0.0;
        /** Read position in the fleet trace (wraps). */
        std::size_t cursor = 0;
        /** Device-local wave counter (timestamps, block phases). */
        std::size_t sampleClock = 0;
        /** Wave index of the scheduled brownout; SIZE_MAX = none. */
        std::size_t brownoutAtSample = static_cast<std::size_t>(-1);
        FleetDeviceStats stats;
    };

    void buildShard(std::size_t shard);
    void runShard(std::size_t shard);
    /** Admit-and-install through the cache; updates stats/RAM. */
    bool admitInstall(Device &device, int condition_id,
                      const il::Program &program,
                      hub::FleetPlanCache::Shard &shard_cache);

    FleetConfig config;
    /** Resolved placement space (config.executors or {config.mcu}). */
    std::vector<hub::ExecutorModel> executors;
    /** Signature of `executors` (placement memo key). */
    std::string executorSignature;
    /** True when any executor models a wake budget (enables the
     *  range-analysis proven-bound substitution). */
    bool wakeBudgetModeled = false;
    std::vector<FleetAppMix> mix;
    const trace::Trace *fleetTrace;
    /** Channel set shared by every app in the mix. */
    std::vector<il::ChannelInfo> channels;
    /** Trace channel index per engine channel. */
    std::vector<std::size_t> traceChannelOf;
    /** Compiled wake-up condition per mix entry (compiled once). */
    std::vector<il::Program> mixPrograms;

    hub::FleetPlanCache cache;
    /** One read-mostly cache view per shard (see plan_cache.h). */
    std::vector<hub::FleetPlanCache::Shard> shardCaches;
    std::vector<Device> devices;
    bool built = false;
};

} // namespace sidewinder::sim

#endif // SIDEWINDER_SIM_FLEET_H
