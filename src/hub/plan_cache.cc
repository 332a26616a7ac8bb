#include "hub/plan_cache.h"

#include <cstdio>
#include <utility>

#include "il/analyze_range.h"
#include "il/lower.h"
#include "il/writer.h"
#include "support/error.h"

namespace sidewinder::hub {

namespace {

/** Channel-set signature: names and rates in declaration order. */
std::string
channelSignature(const std::vector<il::ChannelInfo> &channels)
{
    std::string sig;
    for (const auto &ch : channels) {
        sig += ch.name;
        sig += '@';
        char buf[40];
        std::snprintf(buf, sizeof buf, "%.17g", ch.sampleRateHz);
        sig += buf;
        sig += ';';
    }
    return sig;
}

} // namespace

std::string
FleetPlanCache::programKey(const il::Program &program,
                           const std::vector<il::ChannelInfo> &channels)
{
    return channelSignature(channels) + '\n' + il::write(program);
}

std::string
FleetPlanCache::canonicalPlanKey(const il::ExecutionPlan &plan)
{
    if (plan.outNode < 0)
        throw InternalError("plan without OUT routing has no identity");
    return channelSignature(plan.channels) + '\n' +
           plan.shareKeys[static_cast<std::size_t>(plan.outNode)];
}

FleetPlanCache::PlanPtr
FleetPlanCache::internGlobal(
    const std::string &text_key, const il::Program &program,
    const std::vector<il::ChannelInfo> &channels)
{
    std::lock_guard<std::mutex> guard(lock);

    auto it = byText.find(text_key);
    if (it != byText.end()) {
        globalHitCount.fetch_add(1, std::memory_order_relaxed);
        return it->second;
    }

    // Lower inside the lock: serializing the (rare) cold path is what
    // makes `misses` exactly the number of distinct conditions — two
    // shards racing on the same key produce one miss and one global
    // hit, at any thread count.
    il::ExecutionPlan lowered = il::lower(program, channels);
    lowered.debugAssertUnchanged();
    const std::string canonical_key = canonicalPlanKey(lowered);

    auto canon = byCanonical.find(canonical_key);
    if (canon != byCanonical.end()) {
        // Textually new rendering of a structurally known condition:
        // alias the text key to the existing instance. The lowering
        // work happened, but the retained plan (and every tenant
        // pointer) stays deduplicated.
        globalHitCount.fetch_add(1, std::memory_order_relaxed);
        byText.emplace(text_key, canon->second);
        return canon->second;
    }

    missCount.fetch_add(1, std::memory_order_relaxed);
    auto plan = std::make_shared<const il::ExecutionPlan>(
        std::move(lowered));
    retainedBytes += planRetainedBytes(*plan);
    byCanonical.emplace(canonical_key, plan);
    byText.emplace(text_key, plan);
    return plan;
}

FleetPlanCache::PlanPtr
FleetPlanCache::Shard::intern(
    const il::Program &program,
    const std::vector<il::ChannelInfo> &channels)
{
    std::string key = programKey(program, channels);
    auto it = local.find(key);
    if (it != local.end()) {
        // Lock-free fast path: this shard has served the key before.
        cache->localHitCount.fetch_add(1, std::memory_order_relaxed);
        it->second->debugAssertUnchanged();
        return it->second;
    }
    PlanPtr plan = cache->internGlobal(key, program, channels);
    local.emplace(std::move(key), plan);
    return plan;
}

double
FleetPlanCache::provenWakeRateHz(const il::ExecutionPlan &plan)
{
    const std::string key = canonicalPlanKey(plan);
    {
        std::lock_guard<std::mutex> guard(lock);
        auto it = provenWakeByCanonical.find(key);
        if (it != provenWakeByCanonical.end())
            return it->second;
    }
    // Analyze outside the lock — the analysis is pure, so a racing
    // duplicate computes the same value and the memo stays exact.
    const double proven = il::analyzeRanges(plan).provenWakeRateHz;
    std::lock_guard<std::mutex> guard(lock);
    provenWakeByCanonical.emplace(key, proven);
    return proven;
}

PlacementDecision
FleetPlanCache::firstInstallPlacement(
    const il::ExecutionPlan &plan,
    const std::string &executor_signature,
    const std::function<PlacementDecision()> &compute)
{
    const std::string key =
        canonicalPlanKey(plan) + '\n' + executor_signature;
    {
        std::lock_guard<std::mutex> guard(lock);
        auto it = placementByKey.find(key);
        if (it != placementByKey.end())
            return it->second;
    }
    // Place outside the lock — the placer is deterministic, so a
    // racing duplicate computes the identical decision and the memo
    // stays exact.
    PlacementDecision decision = compute();
    std::lock_guard<std::mutex> guard(lock);
    placementByKey.emplace(key, decision);
    return decision;
}

PlanCacheStats
FleetPlanCache::stats() const
{
    PlanCacheStats out;
    out.misses = missCount.load(std::memory_order_relaxed);
    out.globalHits = globalHitCount.load(std::memory_order_relaxed);
    out.localHits = localHitCount.load(std::memory_order_relaxed);
    {
        std::lock_guard<std::mutex> guard(lock);
        out.planCount = byCanonical.size();
        out.retainedBytes = retainedBytes;
    }
    return out;
}

std::size_t
planRetainedBytes(const il::ExecutionPlan &plan)
{
    std::size_t bytes = sizeof(il::ExecutionPlan);
    for (const auto &ch : plan.channels)
        bytes += sizeof(ch) + ch.name.capacity();
    for (const auto &a : plan.algorithms)
        bytes += sizeof(a) + a.capacity();
    for (const auto &p : plan.params)
        bytes += sizeof(p) + p.capacity() * sizeof(double);
    for (const auto &k : plan.shareKeys)
        bytes += sizeof(k) + k.capacity();
    bytes += plan.inputOffsets.capacity() * sizeof(std::uint32_t);
    bytes += plan.inputCounts.capacity() * sizeof(std::uint32_t);
    bytes += plan.streams.capacity() * sizeof(il::NodeStream);
    bytes += plan.cyclesPerInvoke.capacity() * sizeof(double);
    bytes += plan.invokeRateHz.capacity() * sizeof(double);
    bytes += plan.ramBytes.capacity() * sizeof(std::size_t);
    bytes += plan.blockStride.capacity() * sizeof(std::uint32_t);
    bytes += plan.sourceIds.capacity() * sizeof(il::NodeId);
    bytes += plan.inputRefs.capacity() * sizeof(std::int32_t);
    return bytes;
}

} // namespace sidewinder::hub
