/**
 * @file
 * The hub's dataflow engine: executes one or more installed wake-up
 * conditions over the incoming sensor sample stream.
 *
 * This is the C++ equivalent of the paper's interpreter (Section 3.5):
 * "Upon receiving a new configuration, the runtime allocates memory
 * for each algorithm in the configuration. The interpreter then waits
 * for sensor data to be available and feeds the data into the
 * appropriate algorithm. If the algorithm produces a result, it sets a
 * flag. The interpreter checks the flag and if necessary sends the
 * result to the next algorithm."
 *
 * Unlike the paper's interpreter, the engine does not re-discover the
 * graph per install or per sample: conditions arrive as an
 * il::ExecutionPlan — indices resolved, costs
 * precomputed, canonical sharing keys assigned — and the wave loop
 * runs over a dense schedule of live nodes with firing policies
 * cached at install time (no per-wave virtual dispatch just to ask a
 * kernel how it fires).
 *
 * The engine additionally implements the paper's future-work
 * optimization (Section 7): "When receiving multiple wake-up
 * conditions, the sensor manager can attempt to improve performance by
 * combining the pipelines that use common algorithms." Structurally
 * identical nodes (equal plan sharing keys) are shared across
 * conditions when sharing is enabled.
 */

#ifndef SIDEWINDER_HUB_ENGINE_H
#define SIDEWINDER_HUB_ENGINE_H

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <type_traits>
#include <unordered_map>
#include <vector>

#include "hub/kernel.h"
#include "il/ast.h"
#include "il/lower.h"
#include "il/plan.h"
#include "il/validate.h"
#include "support/ring_buffer.h"

namespace sidewinder::hub {

/** One wake-up raised by an installed condition. */
struct WakeEvent
{
    /** Identifier of the condition that fired. */
    int conditionId = 0;
    /** Timestamp of the triggering sample, seconds. */
    double timestamp = 0.0;
    /** Scalar value that reached OUT. */
    double value = 0.0;
};

/** Executes installed wake-up conditions against sensor samples. */
class Engine
{
  public:
    /**
     * @param channels Sensor channels this hub serves; pushSamples()
     *     must supply one value per channel per tick, so the
     *     channels of one engine must share a sampling rate (the
     *     prototype hardware runs one engine per synchronous sensor
     *     group — accelerometer axes together, microphone separate —
     *     matching the paper's one-processor-per-sensor sizing
     *     option in Section 3.8).
     * @param share_nodes Enable cross-condition node sharing.
     * @param raw_buffer_size Per-channel raw history handed to the
     *     application on wake-up.
     * @param kernel_mode Numeric mode for every kernel this engine
     *     instantiates: Float64 (reference) or FixedQ15 (bit-accurate
     *     16-bit fixed point, the firmware sample format).
     */
    explicit Engine(std::vector<il::ChannelInfo> channels,
                    bool share_nodes = true,
                    std::size_t raw_buffer_size = 200,
                    KernelMode kernel_mode = KernelMode::Float64);

    /**
     * Install a lowered wake-up condition (the hub runtime lowers
     * once at admission and installs the same plan). The plan must
     * have been lowered against this engine's channels, with
     * lowerOptions() when it should instantiate as this engine would.
     * @throws ConfigError on duplicate ids or unknown channels.
     */
    void addCondition(int condition_id, const il::ExecutionPlan &plan);

    /** Remove a condition, freeing nodes no other condition uses. */
    void removeCondition(int condition_id);

    /** True when @p condition_id is installed. */
    bool hasCondition(int condition_id) const;

    // ----- live reconfiguration: the A/B shadow slot -----
    //
    // stageCondition() installs a plan next to the live one instead of
    // replacing it: staged nodes join the schedule (so they execute
    // and warm up — windows fill, averages settle — while the A copy
    // keeps waking the phone), nodes shared with live conditions are
    // refcounted rather than duplicated (their ring buffers, EMA
    // state, and dwell timers carry over bit-identically), but staged
    // OUT nodes never raise wake events. commitStaged() retires the
    // replaced A conditions and promotes every staged one between two
    // waves — the atomic swap — and abortStaged() frees whatever only
    // the staged copies held. During the overlap window
    // estimatedCyclesPerSecond()/estimatedRamBytes() charge both
    // copies; admission must gate on that combined load.

    /**
     * Stage @p plan in the shadow slot under @p condition_id. A live
     * condition with the same id keeps running untouched until
     * commitStaged(). Restaging an already-staged id replaces the
     * earlier staged copy (a retried update must be idempotent).
     * @throws ConfigError on unknown channels.
     */
    void stageCondition(int condition_id, const il::ExecutionPlan &plan);

    /** Number of staged conditions. */
    std::size_t stagedCount() const { return stagedConditions.size(); }

    /**
     * The atomic A/B swap: for every staged condition, retire the
     * live condition with the same id (if any) and promote the staged
     * copy. Runs between waves — callers must not invoke it from
     * inside a push. Nodes shared between the retiring and promoted
     * copies survive with their state; nodes only the retired copy
     * held are freed.
     */
    void commitStaged();

    /**
     * Roll back the shadow slot: discard every staged condition,
     * freeing nodes no live condition shares. The A copies are
     * untouched — this is the rollback path when a transfer fails
     * mid-update.
     */
    void abortStaged();

    /**
     * Reconstruct the subgraph rooted at the node whose shareKey
     * hashes to @p key_hash as IL statements appended to @p out —
     * the receive side of a delta push: a reused reference pulls the
     * whole transitive cone, which commitStaged() then shares (state
     * and all) rather than re-instantiates. @p emitted memoizes
     * node-index -> statement id across calls so subgraphs referenced
     * twice in one message splice once; @p next_id supplies fresh
     * statement ids.
     * @return the statement id of the root node.
     * @throws ConfigError when no such node is live.
     */
    il::NodeId exportSubgraph(
        std::uint64_t key_hash, il::Program &out, il::NodeId &next_id,
        std::unordered_map<int, il::NodeId> &emitted) const;

    /**
     * Feed one synchronous sample per channel (in the channel order
     * given at construction) and run one evaluation wave.
     */
    void pushSamples(const std::vector<double> &values, double timestamp);

    /**
     * Block execution: feed @p count consecutive waves at once.
     *
     * @p lanes holds one pointer per channel, in the channel order
     * given at construction: lanes[ch][w] is channel ch's sample on
     * wave w. Each kernel's block loop reads its channel lane in
     * place, so a trace's per-channel vectors are consumed with no
     * packing copy. Wave w carries timestamp @p stamp_of(w), evaluated
     * only for the waves that raise a wake (a trace replay passes
     * Trace::timeOf rather than filling a timestamp array per block).
     *
     * Semantically identical to calling pushSamples() once per wave
     * (same wake events in the same order, same raw history, same
     * node state afterward — blocks and single waves interleave
     * freely), but each node runs one Kernel::invokeBlock() over the
     * whole block instead of @p count virtual calls: node-major
     * iteration over SoA lanes is valid because all cross-wave state
     * lives inside kernel objects, and a node's per-wave firing
     * decisions depend only on producers that precede it in the
     * schedule.
     */
    template <typename StampOf>
        requires std::is_invocable_r_v<double, const StampOf &,
                                       std::size_t>
    void pushBlock(const double *const *lanes, std::size_t count,
                   const StampOf &stamp_of)
    {
        pushClocked(lanes, count, clockOf(stamp_of));
    }

    /**
     * Channel-major overload: samples[ch * count + w] is channel ch's
     * sample on wave w.
     */
    void pushBlock(const double *samples, std::size_t count,
                   const double *timestamps);

    /**
     * Convenience overload for evenly spaced waves: wave w carries
     * timestamp @p t0 + w * @p dt, evaluated only for waves that wake.
     */
    void pushBlock(const double *samples, std::size_t count, double t0,
                   double dt);

    /** Numeric mode the engine's kernels were instantiated with. */
    KernelMode kernelMode() const { return numericMode; }

    /** Retrieve and clear the wake-ups raised since the last drain. */
    std::vector<WakeEvent> drainWakeEvents();

    /**
     * As drainWakeEvents(), into @p out (its old contents dropped).
     * The engine keeps @p out's storage for the next wake-ups, so a
     * caller draining into the same vector every block allocates
     * nothing once both have grown.
     */
    void drainWakeEvents(std::vector<WakeEvent> &out);

    /**
     * Recent raw samples of the condition's primary (first-referenced)
     * channel, oldest first.
     */
    std::vector<double> rawSnapshot(int condition_id) const;

    /** Live (shared) algorithm instances across all conditions. */
    std::size_t nodeCount() const;

    /**
     * Static estimate of the sustained compute demand of the installed
     * conditions, in abstract MCU cycle units per second. Summed from
     * the installed plans' precomputed per-node costs. Used by the
     * capability model to size the microcontroller.
     */
    double estimatedCyclesPerSecond() const;

    /**
     * Static estimate of the RAM held by the installed conditions'
     * live nodes (state blocks + result storage), in bytes. Shared
     * nodes are counted once — installing a condition whose nodes
     * dedupe against existing ones costs less than its standalone
     * footprint. Checked against McuModel::ramBytes at admission.
     */
    std::size_t estimatedRamBytes() const;

    /**
     * The *additional* cost of installing @p plan on this engine:
     * nodes whose sharing key is already instantiated (when sharing
     * is enabled) are free, everything else is charged its plan cost.
     * Admission control gates on current load + this marginal cost.
     */
    il::ProgramCost marginalCost(const il::ExecutionPlan &plan) const;

    /** Abstract cycles consumed by kernel invocations so far. */
    double cyclesConsumed() const { return dynamicCycles; }

    /**
     * Proven value interval for the range tripwire, keyed by the
     * canonical node sharing key (il::ExecutionPlan::shareKeys).
     * For ComplexFrame nodes hi is additionally a magnitude bound.
     */
    struct RangeBound
    {
        double lo = 0.0;
        double hi = 0.0;
    };

    /**
     * Arm the range tripwire: while armed, every value a node emits
     * on the per-sample path is cross-checked against its proven
     * interval (plus a tiny floating-point slack); violations are
     * counted and the first one is described. The soundness gate of
     * the value-range analyzer (tests/il_range_test.cc, ASan/TSan
     * trees) runs with this armed; production runs leave it off, so
     * the steady-state cost is one predictable branch per emission.
     */
    void armRangeTripwire(
        std::unordered_map<std::string, RangeBound> bounds);

    /** Disarm the tripwire and forget the installed bounds. */
    void disarmRangeTripwire();

    /** Emissions observed outside their proven interval so far. */
    std::size_t rangeTripwireViolations() const
    {
        return tripwireViolationCount;
    }

    /** Human-readable description of the first violation; empty. */
    const std::string &rangeTripwireFirstViolation() const
    {
        return tripwireFirstViolation;
    }

    /**
     * Q15 saturation events recorded on this thread by the dsp
     * counters (dsp::q15SaturationEventCount) — the empirical side of
     * the analyzer's SW301 verdict. Always 0 in Release builds, where
     * the counters are compiled out.
     */
    static std::uint64_t q15SaturationEvents();

    /** Reset this thread's Q15 saturation-event counter. */
    static void resetQ15SaturationEvents();

    /**
     * Power-cycle semantics: keep the installed conditions but drop
     * all accumulated signal state — window contents, averages, peak
     * context, consecutive counters, raw history, pending wake-ups,
     * and the dynamic cycle counter.
     */
    void resetState();

    /** Channels this engine serves. */
    const std::vector<il::ChannelInfo> &channels() const
    {
        return channelInfos;
    }

    /**
     * How to lower a program for this engine: a non-sharing engine
     * keeps every statement as its own node, duplicates included.
     */
    il::LowerOptions lowerOptions() const { return {shareNodes}; }

  private:
    /**
     * How the block loop dispatches a node, fixed at install from its
     * firing policy and producers.
     */
    enum class BlockKind : std::uint8_t {
        /** Channel inputs only: every wave fires. */
        Dense,
        /** AllInputs with one node producer (channels beside it). */
        Single,
        /** AllInputs with several node producers. */
        Multi,
        /** AnyInput or ObserveBlocks with a node producer. */
        General,
    };

    /** An input slot that reads a channel lane, patched per block. */
    struct ChannelView
    {
        std::uint32_t slot = 0;
        std::uint32_t channel = 0;
    };

    struct Node
    {
        std::string key;
        std::string algorithm;
        /** Literal parameters, kept for subgraph export (delta
            reconstruction needs to re-render reused nodes as IL). */
        std::vector<double> params;
        std::unique_ptr<Kernel> kernel;
        /** Inputs: node index (>= 0) or channel as -(index + 1). */
        std::vector<int> inputs;
        /** Producer per input; nullptr for channel inputs. */
        std::vector<const Node *> producers;
        /**
         * Input value pointer per input, resolved at install time:
         * channel slots and producer result slots are address-stable,
         * so the wave loop reuses these instead of rebuilding an
         * input array per wave. Entries are patched to null through
         * `scratch` only for AnyInput/ObserveBlocks firings with
         * non-emitting inputs.
         */
        std::vector<const Value *> cachedInputs;
        /** The non-channel producers, for per-wave state checks. */
        std::vector<const Node *> nodeProducers;
        /** True when any input is a channel (emits every wave). */
        bool hasChannelInput = false;
        /** Firing policy, cached at install (kernels are immutable). */
        FiringPolicy policy = FiringPolicy::AllInputs;
        /** Kernel::conditional(), cached at install. */
        bool rejects = false;
        il::NodeStream stream;
        double cyclesPerInvoke = 0.0;
        double invokeRateHz = 0.0;
        std::size_t ramBytes = 0;
        int refCount = 0;

        // Per-wave state of the per-sample loop.
        WaveState state = WaveState::Idle;
        Value result;
        /** Reused input-pointer scratch (hot-path allocation avoidance). */
        std::vector<const Value *> scratch;

        // Block-execution storage, sized to the largest block seen.
        // One lane per wave: states always; scalars for scalar
        // emitters, boxed Values (persistent, storage-reusing) for
        // frame emitters.
        std::vector<std::uint8_t> blockStates;
        std::vector<double> blockScalars;
        std::vector<Value> blockBoxed;
        /** SoA input views, bound when the lanes are (re)sized; only
            the channelViews slots change per block. */
        std::vector<BlockInput> blockInputs;
        BlockOutput blockOutput;
        std::vector<ChannelView> channelViews;
        BlockKind blockKind = BlockKind::Dense;

        // What the last block did, published for consumers: how many
        // waves emitted, whether any blocked, and — when sparse
        // (emittedWaves * 8 <= count) — the emitted waves ascending.
        std::uint32_t emittedWaves = 0;
        bool anyBlocked = false;
        std::vector<std::uint32_t> firingWaves;
    };

    /** A live condition's wake source, in condition-id order. */
    struct WakeOut
    {
        int id = 0;
        Node *node = nullptr;
    };

    /**
     * A block's wave timestamps, type-erased so the block loop is
     * compiled once per lane layout; called only for waking waves.
     */
    struct WaveClock
    {
        const void *context = nullptr;
        double (*stamp)(const void *context, std::size_t wave) = nullptr;

        double operator()(std::size_t wave) const
        {
            return stamp(context, wave);
        }
    };

    template <typename StampOf>
    static WaveClock
    clockOf(const StampOf &stamp_of)
    {
        return {&stamp_of, [](const void *context, std::size_t wave) {
                    return static_cast<double>(
                        (*static_cast<const StampOf *>(context))(wave));
                }};
    }

    struct Condition
    {
        int id = 0;
        /** Node whose result reaching OUT wakes the main CPU. */
        int outNode = -1;
        /** Node indices referenced (for refcounting), one per stmt. */
        std::vector<int> ownedNodes;
        /** Index of the first channel the program reads. */
        int primaryChannel = 0;
    };

    int channelIndexOf(const std::string &name) const;
    /** Install @p plan's nodes (hash-consed, refcounted) and build
        the Condition record; shared by install and staging. */
    Condition buildCondition(int condition_id,
                             const il::ExecutionPlan &plan);
    /** Drop one condition's node references, freeing orphans. */
    void releaseConditionNodes(const Condition &cond);
    /** Drop freed slots from the node table, keeping the live nodes'
        (topological) order and remapping every stored index. */
    void compactNodes();
    /** Rebuild the dense wave schedule, the block views and the wake
        sources after any add/remove. */
    void rebuildSchedule();
    /** Size a node's lanes to laneCapacity. */
    void sizeNodeLanes(Node &node) const;
    /** Point a node's output and producer views at the lanes. */
    static void bindNodeLanes(Node &node);
    /**
     * The block loop behind every pushBlock() form. lanes[ch] yields a
     * pointer to channel ch's first wave: a lane-pointer array, or a
     * view computing it from channel-major samples — so the engine
     * keeps no per-instance lane scratch.
     */
    template <typename Lanes>
    void pushLanes(const Lanes &lanes, std::size_t count,
                   const WaveClock &clock);
    /** pushLanes() over a lane-pointer array: the lazy-stamp
        pushBlock() template's way in. */
    void pushClocked(const double *const *lanes, std::size_t count,
                     const WaveClock &clock);
    /** Run one node over the block and publish what it did. */
    void runNodeBlock(Node &node, std::size_t count);
    /**
     * Fire @p node on the @p n ascending @p waves only. Every other
     * wave lands Idle, or Blocked where @p blocking (the single
     * producer, when it blocked this block) is Blocked.
     */
    void runListed(Node &node, const std::uint32_t *waves, std::size_t n,
                   std::size_t count, const Node *blocking);
    /** A Multi node whose producers are all sparse and none blocked;
        false leaves the node to the lane combination. */
    bool runIntersected(Node &node, std::size_t count);
    /** Combine the producers' state lanes into a fire lane (General
        nodes, and Multi nodes runIntersected() declines). */
    void runCombined(Node &node, std::size_t count);
    /** Push the block's wake events in wave-major, condition-id order. */
    void raiseBlockWakes(std::size_t count, const WaveClock &clock);

    std::vector<il::ChannelInfo> channelInfos;
    /** Channel name -> index, built once in the constructor. */
    std::unordered_map<std::string, int> channelIndexByName;
    bool shareNodes;
    std::size_t rawBufferSize;
    KernelMode numericMode;

    std::vector<std::unique_ptr<Node>> nodes;
    /** Live nodes in topological order — the wave loop's worklist. */
    std::vector<Node *> schedule;
    std::unordered_map<std::string, int> nodeByKey;
    /** il::shareKeyHash(key) -> node index (sharing enabled only) —
        the resolution table for 8-byte delta references. */
    std::unordered_map<std::uint64_t, int> nodeByKeyHash;
    std::map<int, Condition> conditions;
    /** The shadow (B) slot: staged but not yet live conditions. */
    std::map<int, Condition> stagedConditions;
    std::vector<RingBuffer<double>> rawBuffers;
    std::vector<WakeEvent> pendingWakeEvents;
    /** Live conditions' out nodes in id order (staged ones never
        wake), rebuilt with the schedule. */
    std::vector<WakeOut> wakeOuts;
    /** Waves every node's lanes hold: the largest block seen. */
    std::size_t laneCapacity = 0;
    /** Reused per-wave channel value scratch. */
    std::vector<Value> channelValues;
    /** Reused per-block firing-decision scratch. */
    std::vector<BlockFire> fireDecisions;
    /** Reused per-block combined-input-state scratch (multi-input). */
    std::vector<std::uint8_t> blockAllEmitted;
    std::vector<std::uint8_t> blockAnyEmitted;
    std::vector<std::uint8_t> blockAnyBlocked;
    /** Reused per-wave any-condition-fired scratch (wake scan). */
    std::vector<std::uint8_t> wakeScan;
    double dynamicCycles = 0.0;

    /** Range-tripwire state (armRangeTripwire). */
    bool tripwireArmed = false;
    std::unordered_map<std::string, RangeBound> tripwireBounds;
    std::size_t tripwireViolationCount = 0;
    std::string tripwireFirstViolation;

    void checkRangeTripwire(const Node &node);
};

} // namespace sidewinder::hub

#endif // SIDEWINDER_HUB_ENGINE_H
