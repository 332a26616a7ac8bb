#include "sim/fleet.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <utility>

#include "il/analyze_range.h"
#include "il/lower.h"
#include "support/error.h"

namespace sidewinder::sim {

namespace {

/** splitmix64 finalizer: the fleet's stateless per-device RNG. */
std::uint64_t
mixHash(std::uint64_t x)
{
    x += 0x9e3779b97f4a7c15ULL;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
    return x ^ (x >> 31);
}

/** Uniform draw in [0, 1) from a hash value. */
double
unitDraw(std::uint64_t h)
{
    return static_cast<double>(h >> 11) * 0x1.0p-53;
}

/** Domain-separation salts for the per-device draws. */
constexpr std::uint64_t kAppSalt = 0x61707073ULL;     // "apps"
constexpr std::uint64_t kCursorSalt = 0x63757273ULL;  // "curs"
constexpr std::uint64_t kFaultSalt = 0x666c74ULL;     // "flt"

constexpr std::uint64_t kFnvOffset = 1469598103934665603ULL;
constexpr std::uint64_t kFnvPrime = 1099511628211ULL;

std::uint64_t
fnvU64(std::uint64_t state, std::uint64_t v)
{
    for (int i = 0; i < 8; ++i) {
        state ^= (v >> (i * 8)) & 0xffULL;
        state *= kFnvPrime;
    }
    return state;
}

std::uint64_t
fnvF64(std::uint64_t state, double v)
{
    std::uint64_t bits = 0;
    std::memcpy(&bits, &v, sizeof bits);
    return fnvU64(state, bits);
}

constexpr std::size_t kNoBrownout = static_cast<std::size_t>(-1);

} // namespace

FleetRuntime::FleetRuntime(FleetConfig config_,
                           std::vector<FleetAppMix> mix_,
                           const trace::Trace &fleet_trace)
    : config(std::move(config_)), mix(std::move(mix_)),
      fleetTrace(&fleet_trace)
{
    if (config.deviceCount == 0)
        throw ConfigError("fleet needs at least one device");
    if (config.devicesPerShard == 0 || config.blockSamples == 0)
        throw ConfigError(
            "devicesPerShard and blockSamples must be positive");

    // Resolve the placement space: an explicit heterogeneous set, or
    // the classic single-MCU budget (which makes the placer reproduce
    // accept/reject admission exactly).
    executors = config.executors.empty()
                    ? std::vector<hub::ExecutorModel>{hub::mcuExecutor(
                          config.mcu)}
                    : config.executors;
    executorSignature = hub::executorSetSignature(executors);
    for (const auto &e : executors)
        if (e.wakeBudgetHz > 0.0)
            wakeBudgetModeled = true;
    if (mix.empty())
        throw ConfigError("fleet needs a non-empty app mix");
    if (fleetTrace->sampleCount() == 0)
        throw ConfigError("fleet trace is empty");

    double total_weight = 0.0;
    for (const auto &entry : mix) {
        if (entry.app == nullptr)
            throw ConfigError("fleet app mix entry has no app");
        if (!(entry.weight > 0.0))
            throw ConfigError("fleet app mix weights must be > 0");
        total_weight += entry.weight;
    }
    (void)total_weight;

    // One fleet models one synchronous sensor domain: every app in
    // the mix must read the same channel set so every tenant engine
    // is interchangeable and the plan cache key space is shared.
    channels = mix.front().app->channels();
    for (std::size_t i = 1; i < mix.size(); ++i) {
        if (mix[i].app->channels() != channels)
            throw ConfigError(
                "fleet app mix spans different channel sets (app '" +
                mix[i].app->name() + "' vs '" +
                mix.front().app->name() + "')");
    }

    traceChannelOf.reserve(channels.size());
    for (const auto &ch : channels) {
        if (ch.sampleRateHz != fleetTrace->sampleRateHz)
            throw ConfigError("channel '" + ch.name +
                              "' rate differs from the fleet trace");
        traceChannelOf.push_back(fleetTrace->channelIndex(ch.name));
    }

    // Compile each mix entry's wake-up condition once; tenants only
    // ever intern these fixed programs.
    mixPrograms.reserve(mix.size());
    for (const auto &entry : mix)
        mixPrograms.push_back(entry.app->wakeCondition().compile());
}

std::size_t
FleetRuntime::shardCount() const
{
    return (devices.size() + config.devicesPerShard - 1) /
           config.devicesPerShard;
}

std::size_t
FleetRuntime::shardOf(std::size_t device) const
{
    return device / config.devicesPerShard;
}

int
FleetRuntime::deviceAppIndex(std::size_t device) const
{
    return devices.at(device).stats.appIndex;
}

bool
FleetRuntime::admitInstall(Device &device, int condition_id,
                           const il::Program &program,
                           hub::FleetPlanCache::Shard &shard_cache)
{
    hub::FleetPlanCache::PlanPtr plan;
    if (config.shareAcrossTenants) {
        plan = shard_cache.intern(program, channels);
    } else {
        // Ablation baseline: every tenant lowers privately, so plan
        // memory and install cost scale with the population.
        plan = std::make_shared<const il::ExecutionPlan>(
            il::lower(program, channels));
    }

    // Placer-mediated homing: charge the *marginal* cost of this plan
    // on this engine (nodes the tenant already runs are free under
    // sharing) and ask the device's negotiated-congestion placer for
    // an assignment of every condition — old and new — that respects
    // every executor's cycle/RAM/wake/cell capacity. Later installs
    // may re-home earlier conditions to make room; rejection means no
    // assignment exists.
    const il::ProgramCost marginal = device.engine->marginalCost(*plan);
    // Wake-budget admission uses the range analyzer's proven bound
    // when it is tighter than the syntactic one (SW312): a condition
    // whose data provably cannot fire often fits a wake budget its
    // syntactic rate would blow. Memoized per canonical plan in the
    // fleet cache; the ablation path computes the same pure analysis
    // directly, so admission verdicts are identical either way.
    il::ProgramCost charged = marginal;
    if (wakeBudgetModeled) {
        const double proven =
            config.shareAcrossTenants
                ? cache.provenWakeRateHz(*plan)
                : il::analyzeRanges(*plan).provenWakeRateHz;
        charged.wakeRateBoundHz =
            std::min(charged.wakeRateBoundHz, proven);
    }
    const double wake_hz = charged.wakeRateBoundHz;
    device.placer->addCondition(*plan, charged);

    bool placed = false;
    if (device.placedOrder.empty() && config.shareAcrossTenants) {
        // First install on an empty ledger: the verdict is a pure
        // function of (plan, executor set), so the whole fleet
        // computes it once in the shared cache.
        const hub::PlacementDecision decision =
            cache.firstInstallPlacement(
                *plan, executorSignature, [&device] {
                    return std::move(
                        device.placer->place().decisions.front());
                });
        placed = decision.placed();
        if (placed) {
            device.placements[condition_id] = decision;
            device.hubPowerMw = decision.marginalPowerMw;
        }
    } else {
        const hub::PlacementResult result = device.placer->place();
        placed = result.unplaced == 0;
        if (placed) {
            for (std::size_t i = 0; i < device.placedOrder.size();
                 ++i)
                device.placements[device.placedOrder[i]] =
                    result.decisions[i];
            device.placements[condition_id] =
                result.decisions.back();
            device.hubPowerMw = result.totalPowerMw;
        }
    }
    if (!placed) {
        device.placer->removeLast();
        device.stats.conditionsRejected += 1;
        return false;
    }

    device.engine->addCondition(condition_id, *plan);
    device.installed.emplace(condition_id, std::move(plan));
    device.wakeHzByCondition.emplace(condition_id, wake_hz);
    device.wakeLoadHz += wake_hz;
    device.placedOrder.push_back(condition_id);
    device.stats.conditionsAdmitted += 1;
    device.stats.ramBytes = device.engine->estimatedRamBytes();
    device.stats.hubPowerMw = device.hubPowerMw;
    device.stats.homeExecutor =
        device.placements.at(device.placedOrder.front())
            .executorIndex;
    return true;
}

void
FleetRuntime::buildShard(std::size_t shard)
{
    const std::size_t begin = shard * config.devicesPerShard;
    const std::size_t end =
        std::min(begin + config.devicesPerShard, devices.size());
    const std::size_t trace_samples = fleetTrace->sampleCount();
    const double rate = fleetTrace->sampleRateHz;
    const std::size_t samples_per_run = static_cast<std::size_t>(
        std::llround(config.secondsPerDevice * rate));

    for (std::size_t d = begin; d < end; ++d) {
        Device &device = devices[d];
        // Float64 kernels and the default negotiation on every device.
        device.engine = std::make_unique<hub::Engine>(
            channels, config.sharePerEngine, config.rawBufferSize);
        device.placer = std::make_unique<hub::Placer>(executors);

        device.cursor = static_cast<std::size_t>(
            mixHash(config.seed ^ (d * 2654435761ULL) ^ kCursorSalt) %
            trace_samples);

        if (config.brownoutFraction > 0.0 &&
            unitDraw(mixHash(config.seed ^ (d * 2654435761ULL) ^
                             kFaultSalt)) < config.brownoutFraction)
            device.brownoutAtSample = samples_per_run / 2;

        for (std::size_t c = 0; c < config.conditionsPerDevice; ++c) {
            const std::uint64_t draw = mixHash(
                config.seed ^
                ((d * config.conditionsPerDevice + c) * 0x9e3779b9ULL) ^
                kAppSalt);
            double u = unitDraw(draw);
            // Weighted pick over the mix (weights need not sum to 1).
            double total = 0.0;
            for (const auto &entry : mix)
                total += entry.weight;
            std::size_t pick = mix.size() - 1;
            double acc = 0.0;
            for (std::size_t m = 0; m < mix.size(); ++m) {
                acc += mix[m].weight / total;
                if (u < acc) {
                    pick = m;
                    break;
                }
            }
            if (device.stats.appIndex < 0)
                device.stats.appIndex = static_cast<int>(pick);
            admitInstall(device, static_cast<int>(c) + 1,
                         mixPrograms[pick], shardCaches[shard]);
        }
    }
}

void
FleetRuntime::build(support::ThreadPool &pool)
{
    if (built)
        throw ConfigError("fleet already built");
    devices.resize(config.deviceCount);
    const std::size_t shards = shardCount();
    shardCaches.reserve(shards);
    for (std::size_t s = 0; s < shards; ++s)
        shardCaches.emplace_back(cache);
    pool.parallelFor(0, shards,
                     [this](std::size_t s) { buildShard(s); });
    built = true;
}

void
FleetRuntime::build()
{
    build(support::ThreadPool::shared());
}

void
FleetRuntime::runShard(std::size_t shard)
{
    const std::size_t begin = shard * config.devicesPerShard;
    const std::size_t end =
        std::min(begin + config.devicesPerShard, devices.size());
    const std::size_t trace_samples = fleetTrace->sampleCount();
    const double rate = fleetTrace->sampleRateHz;
    const double dt = 1.0 / rate;
    const std::size_t samples_per_run = static_cast<std::size_t>(
        std::llround(config.secondsPerDevice * rate));
    if (samples_per_run == 0)
        return;

    // One channel-major scratch block and one wake buffer per shard,
    // refilled per device per block — the only allocations in the
    // fleet hot loop.
    std::vector<double> block(channels.size() * config.blockSamples);
    std::vector<hub::WakeEvent> wakes;

    for (std::size_t d = begin; d < end; ++d) {
        Device &device = devices[d];
        if (device.stats.conditionsAdmitted == 0)
            continue; // Rejected tenants never power the hub.

        std::size_t remaining = samples_per_run;
        while (remaining > 0) {
            const std::size_t k =
                std::min(config.blockSamples, remaining);

            // Scheduled brownout: state loss at the nearest block
            // boundary (conditions survive, signal state does not).
            if (!device.stats.brownedOut &&
                device.brownoutAtSample != kNoBrownout &&
                device.sampleClock >= device.brownoutAtSample) {
                device.engine->resetState();
                device.stats.brownedOut = true;
            }

            // The device's trace cursor wraps at most a few times per
            // block: copy the runs between wrap points in bulk.
            for (std::size_t ch = 0; ch < channels.size(); ++ch) {
                const double *src =
                    fleetTrace->channels[traceChannelOf[ch]].data();
                double *lane = block.data() + ch * k;
                std::size_t pos = device.cursor;
                for (std::size_t w = 0; w < k;) {
                    const std::size_t run =
                        std::min(k - w, trace_samples - pos);
                    std::copy_n(src + pos, run, lane + w);
                    w += run;
                    pos += run;
                    if (pos == trace_samples)
                        pos = 0;
                }
            }

            const double t0 =
                static_cast<double>(device.sampleClock) * dt;
            device.engine->pushBlock(block.data(), k, t0, dt);

            device.cursor = (device.cursor + k) % trace_samples;
            device.sampleClock += k;
            device.stats.samplesIngested += k;
            remaining -= k;

            device.engine->drainWakeEvents(wakes);
            for (const auto &ev : wakes) {
                device.stats.wakeEvents += 1;
                device.stats.lastWakeTimestamp = ev.timestamp;
                std::uint64_t h = device.stats.wakeDigest;
                h = fnvU64(
                    h, static_cast<std::uint64_t>(
                           static_cast<std::int64_t>(ev.conditionId)));
                h = fnvF64(h, ev.timestamp);
                h = fnvF64(h, ev.value);
                device.stats.wakeDigest = h;
            }
        }

        // Energy model: the placed hub silicon is powered for the
        // whole ingest (mW x s = mJ) — the admission MCU's active
        // power for single-MCU fleets, active + dynamic over the
        // occupied executors for heterogeneous ones. Duty-cycling
        // below full-on is the simulator's business; the fleet
        // models steady streaming.
        device.stats.hubEnergyMj +=
            device.hubPowerMw *
            (static_cast<double>(samples_per_run) * dt);
        device.stats.ramBytes = device.engine->estimatedRamBytes();
    }
}

void
FleetRuntime::run(support::ThreadPool &pool)
{
    if (!built)
        throw ConfigError("fleet not built yet");
    pool.parallelFor(0, shardCount(),
                     [this](std::size_t s) { runShard(s); });
}

void
FleetRuntime::run()
{
    run(support::ThreadPool::shared());
}

FleetResult
FleetRuntime::collect() const
{
    FleetResult out;
    out.deviceCount = devices.size();
    out.shardCount = shardCount();
    out.cache = cache.stats();
    out.executorConditions.assign(executors.size(), 0);
    out.devices.reserve(devices.size());

    std::uint64_t digest = kFnvOffset;
    for (const auto &device : devices) {
        const FleetDeviceStats &s = device.stats;
        out.devices.push_back(s);
        out.samplesIngested += s.samplesIngested;
        out.wakeEvents += s.wakeEvents;
        if (s.conditionsRejected > 0)
            out.rejectedDevices += 1;
        else if (s.conditionsAdmitted > 0)
            out.admittedDevices += 1;
        if (s.brownedOut)
            out.brownouts += 1;
        out.modeledRamBytes += s.ramBytes;
        out.hubEnergyMj += s.hubEnergyMj;
        out.fleetPowerMw += s.hubPowerMw;
        for (const auto &[cid, decision] : device.placements) {
            (void)cid;
            if (decision.placed())
                out.executorConditions[static_cast<std::size_t>(
                    decision.executorIndex)] += 1;
        }

        digest = fnvU64(digest, static_cast<std::uint64_t>(
                                    static_cast<std::int64_t>(
                                        s.appIndex)));
        digest = fnvU64(digest, s.conditionsAdmitted);
        digest = fnvU64(digest, s.conditionsRejected);
        digest = fnvU64(digest, s.brownedOut ? 1 : 0);
        digest = fnvU64(digest, s.samplesIngested);
        digest = fnvU64(digest, s.wakeEvents);
        digest = fnvU64(digest, s.wakeDigest);
        digest = fnvF64(digest, s.lastWakeTimestamp);
        digest = fnvF64(digest, s.hubEnergyMj);
        digest = fnvU64(digest, s.ramBytes);
        digest = fnvU64(digest, static_cast<std::uint64_t>(
                                    static_cast<std::int64_t>(
                                        s.homeExecutor)));
        digest = fnvF64(digest, s.hubPowerMw);
    }
    out.digest = digest;
    return out;
}

bool
FleetRuntime::installCondition(std::size_t device_index,
                               int condition_id,
                               const apps::Application &app)
{
    if (!built)
        throw ConfigError("fleet not built yet");
    Device &device = devices.at(device_index);

    if (app.channels() != channels)
        throw ConfigError("app '" + app.name() +
                          "' does not match the fleet's channel set");

    return admitInstall(device, condition_id,
                        app.wakeCondition().compile(),
                        shardCaches[shardOf(device_index)]);
}

const hub::PlacementDecision &
FleetRuntime::placementOf(std::size_t device_index,
                          int condition_id) const
{
    const Device &device = devices.at(device_index);
    auto it = device.placements.find(condition_id);
    if (it == device.placements.end())
        throw ConfigError("condition not installed on this device");
    return it->second;
}

void
FleetRuntime::removeCondition(std::size_t device_index,
                              int condition_id)
{
    Device &device = devices.at(device_index);
    if (!device.engine || !device.engine->hasCondition(condition_id))
        throw ConfigError("condition not installed on this device");
    device.engine->removeCondition(condition_id);
    device.installed.erase(condition_id);
    auto wake = device.wakeHzByCondition.find(condition_id);
    if (wake != device.wakeHzByCondition.end()) {
        device.wakeLoadHz -= wake->second;
        device.wakeHzByCondition.erase(wake);
    }
    device.stats.conditionsAdmitted -= 1;
    device.stats.ramBytes = device.engine->estimatedRamBytes();

    // Release the condition's placer slot and re-place the rest —
    // freeing capacity can only keep (or improve) their homes.
    auto slot = std::find(device.placedOrder.begin(),
                          device.placedOrder.end(), condition_id);
    if (slot != device.placedOrder.end()) {
        device.placer->removeAt(static_cast<std::size_t>(
            slot - device.placedOrder.begin()));
        device.placedOrder.erase(slot);
    }
    device.placements.erase(condition_id);
    if (device.placedOrder.empty()) {
        device.hubPowerMw = 0.0;
        device.stats.homeExecutor = -1;
    } else {
        const hub::PlacementResult result = device.placer->place();
        for (std::size_t i = 0; i < device.placedOrder.size(); ++i)
            device.placements[device.placedOrder[i]] =
                result.decisions[i];
        device.hubPowerMw = result.totalPowerMw;
        device.stats.homeExecutor =
            device.placements.at(device.placedOrder.front())
                .executorIndex;
    }
    device.stats.hubPowerMw = device.hubPowerMw;
}

} // namespace sidewinder::sim
