/**
 * @file
 * Kernel interface: one executable algorithm instance on the hub.
 *
 * Mirrors the paper's runtime (Section 3.5): "Each algorithm operates
 * on its own instance of a data structure ... The algorithm operates
 * on the data available in the structure and, if required, stores the
 * result in the structure and sets the hasResult flag." Here the data
 * structure is the kernel object; the interpreter owns the hasResult
 * bookkeeping around invokeInto().
 */

#ifndef SIDEWINDER_HUB_KERNEL_H
#define SIDEWINDER_HUB_KERNEL_H

#include <cstdint>
#include <memory>
#include <vector>

#include "hub/value.h"
#include "il/validate.h"

namespace sidewinder::hub {

/**
 * Per-wave state of a node, generalizing the paper's hasResult flag.
 *
 * - Idle: the node produced nothing because its inputs have not
 *   reached their cadence yet (a window still filling, a moving
 *   average warming up). Not an observable event downstream.
 * - Blocked: the node was evaluated at its cadence and *rejected* —
 *   an admission-control stage whose predicate failed, or a node
 *   downstream of one. Observable as a "miss" by kernels like
 *   consecutive.
 * - Emitted: the node produced a result (hasResult set).
 */
enum class WaveState { Idle, Blocked, Emitted };

/** When the interpreter invokes a kernel within a wave. */
enum class FiringPolicy {
    /** Invoke only when every input emitted this wave. */
    AllInputs,
    /** Invoke when at least one input emitted. */
    AnyInput,
    /**
     * Invoke whenever any input emitted *or blocked*, with nullptr
     * for non-emitting inputs — kernels that must observe misses
     * (consecutive) use this.
     */
    ObserveBlocks,
};

/**
 * Numeric mode of a kernel set, selected per engine.
 *
 * - Float64: the host-native double pipeline (the historical
 *   behavior and the reference semantics).
 * - FixedQ15: bit-accurate 16-bit fixed point — samples quantized to
 *   the Q15 grid, arithmetic saturating, matching the MCU firmware
 *   sample width the analyzer's RAM model already charges
 *   (il::nodeRamBytes, 2 bytes per sample). Values flowing between
 *   nodes stay doubles, but every one of them is exactly a
 *   dequantized Q15 (or scaled-Q15) quantity, so the host run
 *   reproduces what the real hub would compute.
 */
enum class KernelMode { Float64, FixedQ15 };

/**
 * Engine-computed firing decision for one wave within a block.
 * SkipIdle/SkipBlocked mirror the per-sample wave loop's !run
 * branches; RunAll fires with every input emitted (no nulls);
 * RunPartial fires under AnyInput/ObserveBlocks with at least one
 * non-emitting input, so kernels must consult the per-input states.
 */
enum class BlockFire : std::uint8_t {
    SkipIdle = 0,
    SkipBlocked = 1,
    RunAll = 2,
    RunPartial = 3,
};

/**
 * SoA view of one input stream across a block of waves. Exactly one
 * of scalars/boxed is non-null (scalar streams travel as raw double
 * arrays; frame and complex streams as per-wave Values). states is
 * null for channel inputs, which emit on every wave.
 */
struct BlockInput
{
    /** WaveState per wave (as uint8_t); null for channel inputs. */
    const std::uint8_t *states = nullptr;
    /** Per-wave scalar results; null for frame streams. */
    const double *scalars = nullptr;
    /** Per-wave boxed results; null for scalar streams. */
    const Value *boxed = nullptr;
};

/** SoA output view of one node across a block of waves. */
struct BlockOutput
{
    /** WaveState per wave; always written for every wave. */
    std::uint8_t *states = nullptr;
    /** Scalar results (scalar-emitting nodes), else null. */
    double *scalars = nullptr;
    /** Boxed results (frame-emitting nodes), else null. */
    Value *boxed = nullptr;
};

/**
 * An executable algorithm instance.
 *
 * Subclasses implement invokeInto(). Frame-producing kernels write
 * into the output value's existing storage, so the interpreter's
 * steady state reuses buffers instead of constructing and destroying
 * frame vectors every sample.
 *
 * Block execution: invokeBlock() runs K waves in one virtual call
 * over contiguous SoA buffers. The default implementation loops the
 * per-sample invokeInto() path, so every kernel is block-correct by
 * construction; the hot per-wave kernels override it with tight
 * loops the compiler can vectorize.
 */
class Kernel
{
  public:
    virtual ~Kernel() = default;

    /**
     * Execute one firing, writing the result into @p out. @p out is
     * the node's persistent result slot; kernels reuse its storage
     * (Value::frameStorage()) across waves.
     *
     * @param inputs One entry per declared input; entries are null
     *     only under FiringPolicy::AnyInput / ObserveBlocks when that
     *     input produced no result this wave.
     * @return true when a result was produced (hasResult set); false
     *     leaves @p out untouched.
     */
    virtual bool invokeInto(const std::vector<const Value *> &inputs,
                            Value &out) = 0;

    /**
     * Execute @p count consecutive waves in one call — the block
     * execution fast path.
     *
     * @param inputs One BlockInput per declared input, each viewing
     *     @p count waves of that producer's states/results.
     * @param fire Per-wave firing decisions, or nullptr meaning every
     *     wave is BlockFire::RunAll (the dense fast path: the engine
     *     proved all inputs emit on every wave).
     * @param count Number of waves in the block.
     * @param out SoA destination; out.states[w] must be written for
     *     every wave (Skip* waves copy the engine's decision).
     *
     * The default implementation replays the per-sample invokeInto()
     * path wave by wave, reproducing partial-firing nulls and
     * Blocked/Idle mapping exactly — so block execution is
     * bit-identical to per-sample execution for every kernel, and
     * overrides are purely an optimization.
     */
    virtual void invokeBlock(const std::vector<BlockInput> &inputs,
                             const BlockFire *fire, std::size_t count,
                             const BlockOutput &out);

    /**
     * Execute only the @p n waves listed in @p waves (ascending wave
     * indices into the block that @p inputs and @p out view) — the
     * sparse path, for a single- or multi-producer node whose inputs
     * all emit on few waves of a block. Every listed wave is a RunAll
     * firing. An override reads @p inputs and writes @p out at the
     * listed waves only: the inputs' other waves may hold stale
     * results, and the engine writes out.states for every other wave
     * itself.
     *
     * The default runs one single-wave invokeBlock() per listed wave,
     * every lane sliced to that wave. The scalar step kernels override
     * it to step the listed waves directly, the frame reducers to
     * overlap their independent frames, and vectorMagnitude to combine
     * its axes at the listed waves.
     */
    virtual void invokeWaves(const std::vector<BlockInput> &inputs,
                             const std::uint32_t *waves, std::size_t n,
                             const BlockOutput &out);

    /** Discard accumulated state (window contents, counters, ...). */
    virtual void reset() {}

    /** Invocation policy; AllInputs unless overridden. */
    virtual FiringPolicy firingPolicy() const
    {
        return FiringPolicy::AllInputs;
    }

    /**
     * True for admission-control kernels whose non-emission is a
     * rejection (Blocked) rather than mere inactivity (Idle):
     * thresholds and consecutive. Accumulators (windows, moving
     * averages, peak detectors) return false — their silence just
     * means "not yet".
     */
    virtual bool conditional() const { return false; }
};

/**
 * Instantiate the kernel for one plan node.
 *
 * @param algorithm Standardized algorithm name (the plan opcode).
 * @param params Validated numeric parameters.
 * @param inputStreams Stream properties of each input, as carried by
 *     the ExecutionPlan — filters and spectral features need the base
 *     sample rate and FFT size from here.
 * @param mode Numeric mode: KernelMode::FixedQ15 selects the 16-bit
 *     fixed-point variant set where one exists; kernels whose inputs
 *     are already on the Q15 grid (logic, peaks, scale-invariant
 *     spectral features) are shared between modes.
 * @throws ConfigError for unknown algorithms (cannot happen for
 *     validated programs).
 */
std::unique_ptr<Kernel>
makeKernel(const std::string &algorithm,
           const std::vector<double> &params,
           const std::vector<il::NodeStream> &inputStreams,
           KernelMode mode = KernelMode::Float64);

} // namespace sidewinder::hub

#endif // SIDEWINDER_HUB_KERNEL_H
