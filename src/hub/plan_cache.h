/**
 * @file
 * Fleet-wide shared plan cache: hash-consing promoted from per-engine
 * to cross-tenant.
 *
 * One engine already dedupes structurally identical nodes via the
 * plan's canonical shareKeys. A fleet of thousands of simulated
 * devices (sim::FleetRuntime) goes one level up: identical *wake-up
 * conditions* — same canonical IL against the same channels — are
 * lowered exactly once process-wide and the resulting immutable
 * il::ExecutionPlan is shared by every tenant that installs it.
 * Realistic app-mix skew means a handful of plans serve the whole
 * population, so install cost and plan memory stop scaling with
 * device count.
 *
 * Safety rests on the ExecutionPlan immutability invariant
 * (il/plan.h): plans are sealed by il::lower() and only ever read
 * afterwards, so one instance can be handed to concurrent shard
 * workers without synchronization. Each engine still instantiates its
 * own kernels and state lanes at install time — tenants share the
 * plan's constant structure-of-arrays description, never runtime
 * state — which is also what keeps the engine's address-stable
 * cached-input pointers per-tenant.
 *
 * Concurrency model: the shared map is guarded by one mutex, but the
 * hot path never reaches it — each shard of the fleet owns a Shard
 * view whose local unordered_map is touched by exactly one worker at
 * a time, so repeat lookups (the overwhelming majority under a skewed
 * mix) are lock-free. Counters are exact and deterministic at any
 * thread count: lowering happens at most once per key (inside the
 * lock), so `misses` equals the number of distinct conditions, and
 * the local/global split depends only on the device-to-shard mapping,
 * never on scheduling.
 */

#ifndef SIDEWINDER_HUB_PLAN_CACHE_H
#define SIDEWINDER_HUB_PLAN_CACHE_H

#include <atomic>
#include <cstddef>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "hub/placer.h"
#include "il/ast.h"
#include "il/plan.h"
#include "il/validate.h"

namespace sidewinder::hub {

/** Snapshot of the cache's exact lookup accounting. */
struct PlanCacheStats
{
    /** Conditions that had to be lowered (distinct canonical plans
     *  plus text-level aliases of an existing canonical plan). */
    std::size_t misses = 0;
    /** Lookups served from the shared map (first per shard+key). */
    std::size_t globalHits = 0;
    /** Lookups served lock-free from a shard-local view. */
    std::size_t localHits = 0;
    /** Distinct canonical plans retained. */
    std::size_t planCount = 0;
    /** Approximate heap bytes retained by the cached plans. */
    std::size_t retainedBytes = 0;

    /** Total intern() calls observed. */
    std::size_t
    lookups() const
    {
        return misses + globalHits + localHits;
    }

    /** Fraction of lookups that avoided lowering; 1.0 when idle. */
    double
    hitRate() const
    {
        const std::size_t n = lookups();
        return n == 0 ? 1.0
                      : static_cast<double>(n - misses) /
                            static_cast<double>(n);
    }
};

/**
 * Process-wide store of immutable, canonically keyed execution plans.
 */
class FleetPlanCache
{
  public:
    using PlanPtr = std::shared_ptr<const il::ExecutionPlan>;

    /**
     * Pre-lowering lookup key: channel signature plus the program's
     * canonical wire text. Cheap to compute (no lowering), and equal
     * for the repeat installs a fleet actually sees (every tenant of
     * one app pushes byte-identical IL).
     */
    static std::string
    programKey(const il::Program &program,
               const std::vector<il::ChannelInfo> &channels);

    /**
     * Canonical identity of a lowered condition: channel signature
     * plus the OUT node's shareKey (which transitively encodes the
     * whole reachable graph — il::canonicalNodeKey). Two programs
     * whose texts differ but whose lowered graphs are structurally
     * identical intern to the SAME plan instance.
     */
    static std::string canonicalPlanKey(const il::ExecutionPlan &plan);

    /**
     * Single-owner read-mostly view: repeat lookups of a key this
     * shard has already seen are served from a private map with no
     * atomics and no locks. One Shard must only ever be used by one
     * thread at a time (sim::FleetRuntime gives each device shard its
     * own, and a shard is processed by exactly one worker).
     */
    class Shard
    {
      public:
        explicit Shard(FleetPlanCache &owner) : cache(&owner) {}

        /**
         * Return the shared plan for @p program lowered against
         * @p channels, lowering at most once per distinct condition
         * across every shard. A key this shard has served before is
         * a lock-free hit; otherwise the owner's lookup runs under
         * its lock, and lowering with it, so the miss counter is
         * exactly the number of lower() calls.
         *
         * @throws ParseError when the program fails validation (first
         *     lookup only — cached conditions are known-valid).
         */
        PlanPtr intern(const il::Program &program,
                       const std::vector<il::ChannelInfo> &channels);

      private:
        FleetPlanCache *cache;
        std::unordered_map<std::string, PlanPtr> local;
    };

    /**
     * Proven wake-rate bound for @p plan from the value-range
     * analyzer (il::analyzeRanges, default channel ranges), memoized
     * per canonical plan so a fleet pays the analysis once per
     * distinct condition, not once per tenant. Always
     * <= plan.wakeRateBoundHz; admission substitutes it for the
     * syntactic bound when an MCU models a wake budget. Thread-safe;
     * works for plans that were never intern()ed (they memoize on
     * first use).
     */
    double provenWakeRateHz(const il::ExecutionPlan &plan);

    /**
     * Memoized placement verdict for one condition alone on an
     * executor set — the overwhelmingly common fleet admission (a
     * device's *first* install lands on an empty ledger, and skewed
     * app mixes mean a handful of distinct conditions serve the whole
     * population). The verdict is a pure function of (canonical plan,
     * executor-set signature), so it is computed once via @p compute
     * and replayed for every other tenant. Thread-safe; a racing
     * duplicate computes the same value (deterministic placer) and
     * the memo stays exact.
     */
    PlacementDecision firstInstallPlacement(
        const il::ExecutionPlan &plan,
        const std::string &executor_signature,
        const std::function<PlacementDecision()> &compute);

    /** Exact counters; safe to call concurrently with intern(). */
    PlanCacheStats stats() const;

  private:
    PlanPtr internGlobal(const std::string &text_key,
                         const il::Program &program,
                         const std::vector<il::ChannelInfo> &channels);

    mutable std::mutex lock;
    /** Canonical plan key -> the one shared instance. */
    std::unordered_map<std::string, PlanPtr> byCanonical;
    /** Pre-lowering text key -> plan (aliases into byCanonical). */
    std::unordered_map<std::string, PlanPtr> byText;
    /** Canonical plan key -> memoized proven wake-rate bound. */
    std::unordered_map<std::string, double> provenWakeByCanonical;
    /** (Canonical plan key + executor signature) -> placement. */
    std::unordered_map<std::string, PlacementDecision>
        placementByKey;
    std::size_t retainedBytes = 0;

    std::atomic<std::size_t> missCount{0};
    std::atomic<std::size_t> globalHitCount{0};
    std::atomic<std::size_t> localHitCount{0};
};

/**
 * Approximate heap footprint of one plan (vector payloads + string
 * payloads), for the cache's memory accounting.
 */
std::size_t planRetainedBytes(const il::ExecutionPlan &plan);

} // namespace sidewinder::hub

#endif // SIDEWINDER_HUB_PLAN_CACHE_H
