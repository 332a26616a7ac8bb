/**
 * @file
 * ExecutionPlan: the lowered, index-addressed form of an IL program.
 *
 * parse/analyze/validate operate on the AST; everything downstream —
 * the hub engine's wave loop, admission control, MCU selection, FPGA
 * placement, and the swlint tooling — consumes this flat
 * structure-of-arrays plan instead of re-walking statements. The plan
 * is built during the legality walk (il::lower(), or il::analyze(),
 * which hands the same plan back): it resolves every name to an
 * index, computes every static cost once, and assigns each node the
 * canonical sharing key on which lowering's merge pass, the
 * analyzer's SW101 (the node that merge folds a duplicate into) and
 * engine-time hash-consing all agree.
 *
 * This is the compile-don't-interpret move of Reflex-style
 * heterogeneous runtimes: the paper's interpreter (Section 3.5)
 * re-discovers the graph on every install; the plan discovers it once.
 */

#ifndef SIDEWINDER_IL_PLAN_H
#define SIDEWINDER_IL_PLAN_H

#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "il/ast.h"
#include "il/validate.h"

namespace sidewinder::il {

/** Static cost of one algorithm instance. */
struct NodeCost
{
    /** Abstract MCU cycle units per invocation. */
    double cyclesPerInvoke = 0.0;
    /** Nominal invocations per second. */
    double invokeRateHz = 0.0;
    /** Sustained demand: cyclesPerInvoke x invokeRateHz. */
    double cyclesPerSecond = 0.0;
    /** State block + output storage + bookkeeping, bytes. */
    std::size_t ramBytes = 0;
};

/** Static cost of a whole program. */
struct ProgramCost
{
    /** Sum of per-node sustained compute demand. */
    double cyclesPerSecond = 0.0;
    /** Sum of per-node RAM footprints. */
    std::size_t ramBytes = 0;
    /**
     * Worst-case wake-ups per second at OUT (the nominal firing rate
     * of the node feeding OUT; conditionals bound it from above).
     */
    double wakeRateBoundHz = 0.0;
    /**
     * Nodes in the lowered ExecutionPlan — what the hub actually
     * instantiates after sharing. 0 when the program has errors and
     * could not be lowered.
     */
    std::size_t planNodeCount = 0;
    /** Per-node breakdown, keyed by node id. */
    std::map<NodeId, NodeCost> nodes;
};

/**
 * A lowered wake-up condition: nodes in topological order, stored as
 * parallel arrays indexed by dense node index (0-based). Input
 * references use the engine's encoding: a value >= 0 is a node index,
 * a value < 0 is a channel as -(channel_index + 1).
 *
 * Immutability invariant: a plan il::lower() or il::analyze() returns
 * is frozen —
 * no field may be mutated afterwards. Every consumer (engine install,
 * admission control, MCU selection, FPGA placement, tooling) takes
 * plans by const reference, and the fleet-wide plan cache
 * (hub::FleetPlanCache) shares ONE instance across threads and
 * tenants, so mutation would be a data race as well as a semantic
 * bug. lower() records a structural fingerprint via seal();
 * debugAssertUnchanged() re-derives it in debug builds and aborts on
 * any post-seal mutation (the engine and the fleet cache both check).
 */
struct ExecutionPlan
{
    /** Channels the plan was lowered against (index space of refs). */
    std::vector<ChannelInfo> channels;

    // ----- parallel per-node arrays (all size nodeCount()) -----

    /** Standardized algorithm name (the kernel opcode). */
    std::vector<std::string> algorithms;
    /** Numeric parameters. */
    std::vector<std::vector<double>> params;
    /** Offset of the node's first input in inputRefs. */
    std::vector<std::uint32_t> inputOffsets;
    /** Number of inputs. */
    std::vector<std::uint32_t> inputCounts;
    /** Canonical structural sharing key (see canonicalNodeKey()). */
    std::vector<std::string> shareKeys;
    /** Output stream properties. */
    std::vector<NodeStream> streams;
    /** Abstract cycle units per invocation (il::invokeCost). */
    std::vector<double> cyclesPerInvoke;
    /** Nominal invocations per second (slowest input's rate). */
    std::vector<double> invokeRateHz;
    /** Static RAM footprint in bytes (il::nodeRamBytes). */
    std::vector<std::size_t> ramBytes;
    /**
     * Block-execution stride: invocations per output emission,
     * round(invokeRateHz / stream.fireRateHz), at least 1. A window
     * of 256 has stride 256 (one frame per 256 waves); every-wave
     * emitters have stride 1. Block schedulers use this to size
     * batches so decimating nodes fire a whole number of times per
     * block.
     */
    std::vector<std::uint32_t> blockStride;
    /** AST node id of the (first) statement lowered to this node. */
    std::vector<NodeId> sourceIds;

    /** Flat input pool: node index >= 0, channel -(index + 1). */
    std::vector<std::int32_t> inputRefs;

    /** Dense index of the node feeding OUT. */
    int outNode = -1;
    /** Index of the first channel the program reads (raw snapshots). */
    int primaryChannel = 0;
    /** Worst-case wake-ups per second at OUT. */
    double wakeRateBoundHz = 0.0;
    /**
     * Structural fingerprint recorded by seal() (lower() seals every
     * plan it returns); 0 while the plan is still under construction.
     * Not part of the plan's identity — canonical identity is the OUT
     * node's shareKey — just the tripwire debugAssertUnchanged()
     * checks against.
     */
    std::uint64_t sealedHash = 0;

    /** Number of lowered nodes. */
    std::size_t nodeCount() const { return algorithms.size(); }

    /** Input refs of node @p node (pointer + count into the pool). */
    const std::int32_t *
    inputsOf(std::size_t node) const
    {
        return inputRefs.data() + inputOffsets[node];
    }

    /**
     * Stream properties of input @p input of node @p node: the
     * producing node's stream, or a scalar stream at the channel's
     * sample rate for channel refs.
     */
    NodeStream inputStream(std::size_t node, std::size_t input) const;

    /** Static cost of node @p node. */
    NodeCost nodeCost(std::size_t node) const;

    /**
     * Aggregate static cost: totals plus the per-node breakdown keyed
     * by each node's source id. Shared nodes are counted once — this
     * is the number admission control charges.
     */
    ProgramCost cost() const;

    /**
     * The plan as canonical IL: dense ids (index + 1), statements in
     * schedule order, terminated by OUT. write(plan.toProgram()) is
     * the canonical wire form the sensor manager ships.
     */
    Program toProgram() const;

    /**
     * Order-sensitive FNV-1a fingerprint over every structural field
     * (channels, all per-node arrays, the input pool, OUT routing).
     * Two lowerings of the same program against the same channels
     * produce the same hash; any post-lowering mutation changes it.
     */
    std::uint64_t structuralHash() const;

    /** Freeze the plan: record structuralHash() (lower() calls this). */
    void seal() { sealedHash = structuralHash(); }

    /** True once seal() has run. */
    bool sealed() const { return sealedHash != 0; }

    /**
     * Debug-build tripwire for the immutability invariant: asserts a
     * sealed plan still hashes to its sealed fingerprint. Compiles to
     * nothing under NDEBUG — safe on hot paths.
     */
    void debugAssertUnchanged() const;
};

/**
 * Canonical structural key of a node: algorithm, %.17g-rendered
 * parameters, and the canonical keys of its inputs. The single source
 * of truth for lowering's merge pass (and so the analyzer's SW101),
 * engine hash-consing, and FPGA block sharing — two nodes share
 * exactly when their keys compare equal.
 */
std::string canonicalNodeKey(const std::string &algorithm,
                             const std::vector<double> &params,
                             const std::vector<std::string> &input_keys);

/** Canonical key of a raw sensor channel input. */
std::string canonicalChannelKey(const std::string &channel);

/**
 * Deterministic human-readable dump of @p plan (swlint --dump-plan
 * and the golden corpus under tests/data/plans/).
 */
std::string renderPlan(const ExecutionPlan &plan);

} // namespace sidewinder::il

#endif // SIDEWINDER_IL_PLAN_H
