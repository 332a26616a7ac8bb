/**
 * @file
 * Windowing algorithms: partitioning a sample stream into rectangular
 * or Hamming windows (Section 3.6 of the paper, "Windowing").
 */

#ifndef SIDEWINDER_DSP_WINDOW_H
#define SIDEWINDER_DSP_WINDOW_H

#include <cstddef>
#include <vector>

namespace sidewinder::dsp {

/** Shape applied to each emitted window. */
enum class WindowType { Rectangular, Hamming };

/** Hamming coefficient for position @p i of an @p n point window. */
double hammingCoefficient(std::size_t i, std::size_t n);

/**
 * Streaming partitioner that groups incoming scalar samples into
 * fixed-size frames with optional overlap (hop < size) and applies a
 * window shape to each emitted frame.
 */
class WindowPartitioner
{
  public:
    /**
     * @param size Samples per emitted frame; must be positive.
     * @param type Shape applied to each frame.
     * @param hop Samples to advance between frames; defaults to @p size
     *     (no overlap). Must be in [1, size].
     */
    explicit WindowPartitioner(std::size_t size,
                               WindowType type = WindowType::Rectangular,
                               std::size_t hop = 0);

    /**
     * Feed one sample, writing a completed frame into caller-owned
     * storage. @p frame is resized to the window size when a frame is
     * emitted, so a caller reusing the same vector allocates nothing
     * in steady state.
     *
     * @return true when @p frame was filled with a completed window.
     */
    bool pushInto(double sample, std::vector<double> &frame);

    /**
     * Samples still needed before the next pushInto() completes a frame
     * (always >= 1). Block-mode callers use this to bulk-append the
     * quiet stretch between emissions.
     */
    std::size_t
    remainingToFrame() const
    {
        return frameSize - pending.size();
    }

    /**
     * Bulk-append @p n samples known not to complete a frame
     * (@p n < remainingToFrame()): one contiguous insert instead of
     * @p n pushInto() calls, with identical resulting state.
     */
    void appendPartial(const double *samples, std::size_t n);

    /** Discard any partially accumulated frame. */
    void reset();

    /** Configured frame size. */
    std::size_t size() const { return frameSize; }

    /** Configured hop (advance between frames). */
    std::size_t hop() const { return hopSize; }

  private:
    std::size_t frameSize;
    std::size_t hopSize;
    WindowType windowType;
    std::vector<double> pending;
    /** Window shape, tabulated once (cos per sample otherwise). */
    std::vector<double> coefficients;
};

} // namespace sidewinder::dsp

#endif // SIDEWINDER_DSP_WINDOW_H
