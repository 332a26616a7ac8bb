#include "dsp/features.h"

#include <algorithm>
#include <cmath>
#include <type_traits>

#include "support/error.h"

namespace sidewinder::dsp {

double
zeroCrossingRate(const std::vector<double> &frame)
{
    if (frame.size() < 2)
        return 0.0;
    std::size_t crossings = 0;
    for (std::size_t i = 1; i < frame.size(); ++i) {
        const bool prev_neg = frame[i - 1] < 0.0;
        const bool cur_neg = frame[i] < 0.0;
        if (prev_neg != cur_neg)
            ++crossings;
    }
    return static_cast<double>(crossings) /
           static_cast<double>(frame.size() - 1);
}

namespace {

// The reducers over K frames at once. K is a compile-time constant so
// each frame's accumulator stays in a register; the inner loop over
// frames only interleaves independent chains, never reorders one.

/** out[j] = the sum of term(j, x) over frame j's samples x, in order. */
template <std::size_t K, typename Term>
void
sumFixed(const double *const *f, std::size_t n, double *out, Term term)
{
    double s[K] = {};
    for (std::size_t i = 0; i < n; ++i)
        for (std::size_t j = 0; j < K; ++j)
            s[j] += term(j, f[j][i]);
    for (std::size_t j = 0; j < K; ++j)
        out[j] = s[j];
}

/**
 * Run @p op's K-frame form over @p k frames: groups of K while they
 * last, then the rest with K - 1 and down to 1.
 */
template <std::size_t K = kFrameBatch, typename Op>
void
inBatches(const double *const *frames, std::size_t k, std::size_t n,
          double *out, Op op)
{
    for (; k >= K; k -= K, frames += K, out += K)
        op(std::integral_constant<std::size_t, K>{}, frames, n, out);
    if constexpr (K > 1)
        inBatches<K - 1>(frames, k, n, out, op);
}

/** One frame through a batched reducer. */
double
single(void (*batched)(const double *const *, std::size_t, std::size_t,
                       double *),
       const std::vector<double> &frame)
{
    const double *data = frame.data();
    double out = 0.0;
    batched(&data, 1, frame.size(), &out);
    return out;
}

/** The sample itself, as a sumFixed term. */
constexpr auto sample = [](std::size_t, double x) { return x; };

} // namespace

void
meanOfFrames(const double *const *frames, std::size_t k, std::size_t n,
             double *out)
{
    if (n == 0) {
        std::fill(out, out + k, 0.0);
        return;
    }
    inBatches(frames, k, n, out,
              [](auto width, const double *const *f, std::size_t len,
                 double *o) {
                  constexpr std::size_t K = decltype(width)::value;
                  sumFixed<K>(f, len, o, sample);
                  for (std::size_t j = 0; j < K; ++j)
                      o[j] /= static_cast<double>(len);
              });
}

void
varianceOfFrames(const double *const *frames, std::size_t k,
                 std::size_t n, double *out)
{
    if (n < 2) {
        std::fill(out, out + k, 0.0);
        return;
    }
    inBatches(frames, k, n, out,
              [](auto width, const double *const *f, std::size_t len,
                 double *o) {
                  constexpr std::size_t K = decltype(width)::value;
                  double m[K];
                  sumFixed<K>(f, len, m, sample);
                  for (std::size_t j = 0; j < K; ++j)
                      m[j] /= static_cast<double>(len);
                  sumFixed<K>(f, len, o, [&m](std::size_t j, double x) {
                      return (x - m[j]) * (x - m[j]);
                  });
                  for (std::size_t j = 0; j < K; ++j)
                      o[j] /= static_cast<double>(len);
              });
}

void
stddevOfFrames(const double *const *frames, std::size_t k, std::size_t n,
               double *out)
{
    varianceOfFrames(frames, k, n, out);
    for (std::size_t j = 0; j < k; ++j)
        out[j] = std::sqrt(out[j]);
}

void
rootMeanSquareOfFrames(const double *const *frames, std::size_t k,
                       std::size_t n, double *out)
{
    if (n == 0) {
        std::fill(out, out + k, 0.0);
        return;
    }
    inBatches(frames, k, n, out,
              [](auto width, const double *const *f, std::size_t len,
                 double *o) {
                  constexpr std::size_t K = decltype(width)::value;
                  sumFixed<K>(f, len, o,
                              [](std::size_t, double x) { return x * x; });
                  for (std::size_t j = 0; j < K; ++j)
                      o[j] = std::sqrt(o[j] / static_cast<double>(len));
              });
}

double
mean(const std::vector<double> &frame)
{
    return single(meanOfFrames, frame);
}

double
variance(const std::vector<double> &frame)
{
    return single(varianceOfFrames, frame);
}

double
stddev(const std::vector<double> &frame)
{
    return single(stddevOfFrames, frame);
}

double
minimum(const std::vector<double> &frame)
{
    if (frame.empty())
        throw ConfigError("minimum of empty frame");
    return *std::min_element(frame.begin(), frame.end());
}

double
maximum(const std::vector<double> &frame)
{
    if (frame.empty())
        throw ConfigError("maximum of empty frame");
    return *std::max_element(frame.begin(), frame.end());
}

double
rootMeanSquare(const std::vector<double> &frame)
{
    return single(rootMeanSquareOfFrames, frame);
}

double
range(const std::vector<double> &frame)
{
    return maximum(frame) - minimum(frame);
}

DominantFrequency
dominantFrequency(const std::vector<double> &magnitudes)
{
    if (magnitudes.size() < 2)
        throw ConfigError("dominantFrequency needs at least two bins");

    std::size_t best = 1;
    double total = 0.0;
    for (std::size_t i = 1; i < magnitudes.size(); ++i) {
        total += magnitudes[i];
        if (magnitudes[i] > magnitudes[best])
            best = i;
    }

    DominantFrequency result;
    result.bin = best;
    result.magnitude = magnitudes[best];
    result.meanMagnitude =
        total / static_cast<double>(magnitudes.size() - 1);
    return result;
}

} // namespace sidewinder::dsp
