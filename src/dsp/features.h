/**
 * @file
 * Feature-extraction algorithms from Section 3.6 of the paper:
 * zero-crossing rate, a set of statistical functions, and
 * dominant-frequency magnitude. The acceleration vector magnitude is
 * the hub's vectorMagnitude kernel (src/hub/kernels.cc).
 */

#ifndef SIDEWINDER_DSP_FEATURES_H
#define SIDEWINDER_DSP_FEATURES_H

#include <cstddef>
#include <vector>

namespace sidewinder::dsp {

/**
 * Zero-crossing rate of @p frame: fraction of adjacent sample pairs
 * whose signs differ, in [0, 1].
 */
double zeroCrossingRate(const std::vector<double> &frame);

/** Arithmetic mean; zero for an empty frame. */
double mean(const std::vector<double> &frame);

/** Population variance; zero for frames shorter than two samples. */
double variance(const std::vector<double> &frame);

/** Population standard deviation. */
double stddev(const std::vector<double> &frame);

/**
 * Most frames the batched reducers below interleave at once: each
 * call splits its frames into groups of at most this many.
 */
inline constexpr std::size_t kFrameBatch = 4;

/**
 * Batched reducers: out[i] is the single-frame function of the @p n
 * samples at frames[i], for @p k frames of equal length. Each frame's
 * operations are exactly the single-frame function's, in its order —
 * the single-frame functions are these with k = 1 — but the frames'
 * independent add chains run interleaved, which one frame's
 * dependent chain cannot.
 */
void meanOfFrames(const double *const *frames, std::size_t k,
                  std::size_t n, double *out);
/** Batched variance(); see meanOfFrames(). */
void varianceOfFrames(const double *const *frames, std::size_t k,
                      std::size_t n, double *out);
/** Batched stddev(); see meanOfFrames(). */
void stddevOfFrames(const double *const *frames, std::size_t k,
                    std::size_t n, double *out);
/** Batched rootMeanSquare(); see meanOfFrames(). */
void rootMeanSquareOfFrames(const double *const *frames, std::size_t k,
                            std::size_t n, double *out);

/** Smallest element; throws ConfigError on an empty frame. */
double minimum(const std::vector<double> &frame);

/** Largest element; throws ConfigError on an empty frame. */
double maximum(const std::vector<double> &frame);

/** Root mean square of the frame; zero for an empty frame. */
double rootMeanSquare(const std::vector<double> &frame);

/** max - min; throws ConfigError on an empty frame. */
double range(const std::vector<double> &frame);

/** Result of a dominant-frequency analysis of a magnitude spectrum. */
struct DominantFrequency
{
    /** Index of the strongest non-DC bin. */
    std::size_t bin;
    /** Magnitude of that bin. */
    double magnitude;
    /** Mean magnitude across all non-DC bins. */
    double meanMagnitude;

    /**
     * Peak-to-mean ratio: how much the dominant bin stands out. Pitched
     * sounds (sirens) have a high ratio; broadband noise a low one.
     * Returns 0 when the mean magnitude is 0.
     */
    double
    peakToMeanRatio() const
    {
        return meanMagnitude > 0.0 ? magnitude / meanMagnitude : 0.0;
    }
};

/**
 * Locate the dominant (strongest non-DC) frequency bin in a magnitude
 * spectrum: bins 0 .. N/2 of a real frame's transform, as
 * magnitudesInto() writes them.
 *
 * @param magnitudes Bin magnitudes, bin 0 = DC.
 * @throws ConfigError if fewer than two bins are supplied.
 */
DominantFrequency dominantFrequency(const std::vector<double> &magnitudes);

} // namespace sidewinder::dsp

#endif // SIDEWINDER_DSP_FEATURES_H
