/**
 * @file
 * Delta computation for live reconfiguration (OTA-style plan updates).
 *
 * A config change rarely rewrites the whole graph — a tuned threshold
 * leaves the FFT/filter front-end byte-identical. Because canonical
 * shareKeys (il/plan.h) are the single structural identity shared by
 * CSE, engine hash-consing, and the fleet plan cache, the phone can
 * decide *statically* which nodes of a new plan are already live on
 * the hub: exactly those whose shareKey matches a live node. Only the
 * rest ship over the 115200-baud wire; the reused remainder travels as
 * 8-byte hash references the hub resolves against its node table,
 * state and all.
 *
 * This mirrors the split-image OTA pattern of LoRa/Sidewalk firmware
 * updaters — ship the delta, stage it next to the running copy, swap
 * atomically — applied to dataflow plans instead of flash images.
 */

#ifndef SIDEWINDER_IL_DELTA_H
#define SIDEWINDER_IL_DELTA_H

#include <cstddef>
#include <cstdint>
#include <string>
#include <unordered_set>
#include <vector>

#include "il/plan.h"

namespace sidewinder::il {

/**
 * FNV-1a 64-bit hash of a canonical shareKey — the wire form of a
 * node reference in a DeltaPush. Full keys grow with graph depth
 * (they embed their inputs' keys); eight bytes is what a hub-bound
 * reference can afford.
 */
std::uint64_t shareKeyHash(const std::string &share_key);

/**
 * Partition of one plan's nodes for a delta push against a set of
 * shareKeys known to be live on the hub.
 */
struct PlanDelta
{
    /** Per plan node: must this node ship in full? */
    std::vector<bool> shipped;
    /** Plan node indices shipped in full, in schedule order. */
    std::vector<std::size_t> shippedNodes;
    /**
     * Reused plan node indices that appear on the wire as hash
     * references: those consumed directly by a shipped node, plus the
     * OUT node itself when it is reused. Reused nodes consumed only
     * by other reused nodes cost zero wire bytes — the hub's splice
     * pulls the whole subgraph from one root reference.
     */
    std::vector<std::size_t> reusedRefs;
    /** All reused plan nodes (referenced or interior). */
    std::size_t reusedCount = 0;
};

/**
 * Compute which nodes of @p plan must ship to a hub whose live node
 * set is @p live_keys (canonical shareKeys). Deterministic and pure;
 * shared by the sensor manager's update path, `swlint --diff-plan`,
 * and the reconfiguration benchmark.
 */
PlanDelta computeDelta(const ExecutionPlan &plan,
                       const std::unordered_set<std::string> &live_keys);

} // namespace sidewinder::il

#endif // SIDEWINDER_IL_DELTA_H
