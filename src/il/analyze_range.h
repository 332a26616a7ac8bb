/**
 * @file
 * Value-range abstract interpretation over a lowered ExecutionPlan.
 *
 * analyze() proves a program *legal*; this pass proves it *behaves*:
 * given declared physical input ranges per sensor channel, it
 * propagates [lo, hi] intervals through every node of the plan and
 * derives three kinds of facts the rest of the platform consumes:
 *
 *  - Q15 saturation proofs. The hub firmware runs in 1.15 fixed
 *    point; a value quantized outside [-1, 1] clips. Every Q15 kernel
 *    has a known set of quantize points (where doubles meet the Q15
 *    grid) and internal headroom rules (the forward FFT scales each
 *    stage by 1/2, the block-filter inverse transform does not). A
 *    node is *provably Q15-safe* when its interval, times the Q15
 *    engine's pre-quantization scale on that edge, fits the grid and
 *    every internal bound holds. SW301 reports nodes that cannot be
 *    proven safe (an error when Q15 execution is requested), SW302
 *    recommends the pre-scaling shift that would make them provable.
 *
 *  - Reachability. A threshold whose admit set does not intersect
 *    its input interval never passes; a wake condition downstream of
 *    one never fires (SW310). Dually, a threshold chain whose admit
 *    sets *contain* the input intervals always passes, so the "wake
 *    condition" is a timer in disguise (SW311).
 *
 *  - Proven wake-rate bounds. The syntactic wakeRateBoundHz on the
 *    plan assumes every conditional passes every firing; interval
 *    facts prove tighter bounds (a consecutive(m) divides the rate by
 *    m, debounced peaks fire at most every other sample, a dead
 *    branch contributes zero). When the proven bound is tighter
 *    (SW312), admission control charges it instead, so a fleet admits
 *    more tenants on the same wake budget.
 *
 * Soundness contract (enforced by tests/il_range_test.cc): every
 * value the double-precision engine emits lies inside the proven
 * interval of its node, and a plan with no SW301 finding produces
 * zero Q15 saturation events when executed in KernelMode::FixedQ15 on
 * inputs within the declared ranges.
 *
 * Termination: the plan is a DAG in topological order, so one forward
 * pass suffices. The only feedback is *intra-node* kernel state
 * (moving/exponential averages); both compute convex combinations of
 * their inputs, whose least fixpoint is the input hull — the transfer
 * function returns that hull directly, which is the widening rule
 * (documented in docs/intermediate-language.md, "Range semantics").
 */

#ifndef SIDEWINDER_IL_ANALYZE_RANGE_H
#define SIDEWINDER_IL_ANALYZE_RANGE_H

#include <cstdint>
#include <string>
#include <vector>

#include "il/analyze.h"
#include "il/plan.h"
#include "il/validate.h"

namespace sidewinder::il {

/** A closed interval [lo, hi] of doubles; lo > hi encodes empty. */
struct Interval
{
    double lo = 1.0;
    double hi = -1.0;

    /** The empty interval (no value can flow). */
    static Interval empty() { return Interval{1.0, -1.0}; }

    /** The interval containing exactly @p v. */
    static Interval point(double v) { return Interval{v, v}; }

    /** The interval [@p lo, @p hi] (empty when lo > hi). */
    static Interval of(double lo, double hi) { return Interval{lo, hi}; }

    bool isEmpty() const { return lo > hi; }

    /** Largest absolute value in the interval (0 for empty). */
    double maxAbs() const;

    /** hi - lo (0 for empty). */
    double width() const;

    /** Smallest interval containing both operands. */
    Interval hull(const Interval &other) const;

    /** Set intersection. */
    Interval intersect(const Interval &other) const;

    /** True when @p v is inside (never for empty). */
    bool contains(double v) const { return !isEmpty() && v >= lo && v <= hi; }
};

/** Declared physical range of one sensor channel. */
struct ChannelRange
{
    /** Channel name, e.g. "ACC_X". */
    std::string channel;
    double lo = -1.0;
    double hi = 1.0;
};

/**
 * Conservative default ranges for @p channels by sensor type:
 * AUDIO* is normalized [-1, 1]; ACC_* covers a +/-4 g MEMS part
 * including gravity, [-40, 40] m/s^2; BARO covers the full
 * 300..1100 hPa span of a Bosch-class barometer; anything else gets
 * [-1e6, 1e6] (documented, deliberately huge — declare real ranges
 * to get useful proofs).
 */
std::vector<ChannelRange>
defaultChannelRanges(const std::vector<ChannelInfo> &channels);

/** Knobs for analyzeRanges(). */
struct RangeOptions
{
    /**
     * Declared input ranges; channels not listed fall back to
     * defaultChannelRanges(). Empty means all defaults.
     */
    std::vector<ChannelRange> channelRanges;
    /**
     * True when the program is intended for KernelMode::FixedQ15:
     * SW301 becomes an error instead of a warning.
     */
    bool q15 = false;
};

/** Facts proven about one plan node. */
struct NodeRange
{
    /**
     * Bound on every element the node emits under double-precision
     * semantics: scalars, frame elements, and the real/imaginary
     * parts of complex bins all lie in [value.lo, value.hi].
     */
    Interval value;
    /**
     * For ComplexFrame streams additionally |X(k)| <= magnitudeBound
     * (tighter than sqrt(2) * maxAbs; equals value.maxAbs() here
     * because the FFT bound is derived on the magnitude). 0 for
     * non-complex streams.
     */
    double magnitudeBound = 0.0;
    /**
     * Scale the Q15 engine applies to this edge relative to double
     * semantics: a Q15 sample on this edge represents
     * (double value) * q15Scale. 1 everywhere except downstream of
     * a fixed-point FFT (1/N) until the compensating spectrum (x N).
     */
    double q15Scale = 1.0;
    /** False when the node provably never emits. */
    bool reachable = true;
    /**
     * True when the node provably emits on every nominal firing
     * opportunity (conditionals provably always admit).
     */
    bool alwaysEmits = true;
    /** True when the node quantizes data in KernelMode::FixedQ15. */
    bool quantizes = false;
    /**
     * True when every quantize point and internal fixed-point bound
     * of this node is provably saturation-free. Trivially true for
     * nodes with no quantize point.
     */
    bool q15Safe = true;
    /**
     * When !q15Safe: the smallest k such that pre-scaling this
     * node's input by 2^-k makes the proof go through; 0 when no
     * finite shift helps (unbounded interval).
     */
    int recommendedShift = 0;
    /** Proven upper bound on emissions per second. */
    double provenRateHz = 0.0;
};

/** Everything the range pass proved about a plan. */
struct RangeAnalysis
{
    /** Per-node facts, indexed like the plan's arrays. */
    std::vector<NodeRange> nodes;
    /**
     * The input ranges the proofs assumed, one per plan channel in
     * channel-index order (options merged over defaults).
     */
    std::vector<ChannelRange> channelRanges;
    /**
     * Proven upper bound on wake-ups per second at OUT; always
     * <= plan.wakeRateBoundHz. 0 when the wake is provably dead.
     */
    double provenWakeRateHz = 0.0;
    /** False when OUT is provably unreachable (SW310). */
    bool wakeReachable = true;
    /** True when the wake provably fires at its full rate (SW311). */
    bool wakeAlwaysFires = false;
    /** True when every node is provably Q15-saturation-free. */
    bool q15Provable = true;
    /**
     * Diagnostics in the SW3xx family. Diagnostic::node carries the
     * AST id (plan.sourceIds); line/column are 0:0 at plan level —
     * analyzeProgramRanges() fills real statement spans.
     */
    std::vector<Diagnostic> diagnostics;
};

/**
 * Run the interval interpreter over sealed @p plan. One forward pass
 * in schedule order; never throws on a lowerable plan.
 */
RangeAnalysis analyzeRanges(const ExecutionPlan &plan,
                            const RangeOptions &options = {});

/**
 * For tooling: analyze the ranges of @p plan, lowered from
 * @p program (AnalysisResult::plan, or il::lower()), and rewrite the
 * diagnostics' line/column to the originating statement spans.
 */
RangeAnalysis
analyzeProgramRanges(const Program &program, const ExecutionPlan &plan,
                     const RangeOptions &options = {});

/**
 * Deterministic human-readable dump of @p analysis against @p plan
 * (swlint --dump-ranges and the golden corpus under
 * tests/data/ranges/).
 */
std::string renderRanges(const ExecutionPlan &plan,
                         const RangeAnalysis &analysis);

} // namespace sidewinder::il

#endif // SIDEWINDER_IL_ANALYZE_RANGE_H
