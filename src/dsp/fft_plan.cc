#include "dsp/fft_plan.h"

#include <atomic>
#include <cmath>
#include <mutex>
#include <numbers>
#include <unordered_map>

#include "support/error.h"

namespace sidewinder::dsp {

namespace {

std::atomic<std::uint64_t> g_planned{0};
std::atomic<std::uint64_t> g_plannedReal{0};
std::atomic<std::uint64_t> g_naive{0};
std::atomic<std::uint64_t> g_plansBuilt{0};
std::atomic<std::uint64_t> g_cacheHits{0};

inline void
bump(std::atomic<std::uint64_t> &counter)
{
    counter.fetch_add(1, std::memory_order_relaxed);
}

} // namespace

void
countNaiveTransform()
{
    bump(g_naive);
}

FftCounters
fftCounters()
{
    FftCounters c;
    c.plannedTransforms = g_planned.load(std::memory_order_relaxed);
    c.plannedRealTransforms =
        g_plannedReal.load(std::memory_order_relaxed);
    c.naiveTransforms = g_naive.load(std::memory_order_relaxed);
    c.plansBuilt = g_plansBuilt.load(std::memory_order_relaxed);
    c.planCacheHits = g_cacheHits.load(std::memory_order_relaxed);
    return c;
}

void
resetFftCounters()
{
    g_planned.store(0, std::memory_order_relaxed);
    g_plannedReal.store(0, std::memory_order_relaxed);
    g_naive.store(0, std::memory_order_relaxed);
    g_plansBuilt.store(0, std::memory_order_relaxed);
    g_cacheHits.store(0, std::memory_order_relaxed);
}

FftPlan::FftPlan(std::size_t n)
    : FftPlan(n, n > 1 ? std::shared_ptr<const FftPlan>(
                             new FftPlan(n / 2))
                       : nullptr)
{
}

FftPlan::FftPlan(std::size_t n, std::shared_ptr<const FftPlan> half_plan)
    : points(n), half(std::move(half_plan))
{
    if (!isPowerOfTwo(n))
        throw ConfigError("FFT plan size must be a power of two, got " +
                          std::to_string(n));

    std::size_t log2n = 0;
    while ((static_cast<std::size_t>(1) << log2n) < n)
        ++log2n;

    bitrev.resize(n);
    bitrev[0] = 0;
    for (std::size_t i = 1; i < n; ++i)
        bitrev[i] = static_cast<std::uint32_t>(
            (bitrev[i >> 1] >> 1) | ((i & 1) << (log2n - 1)));

    // Direct cos/sin per index: no recurrence, no accumulated drift.
    twiddles.resize(n / 2);
    for (std::size_t j = 0; j < n / 2; ++j) {
        const double angle = -2.0 * std::numbers::pi *
                             static_cast<double>(j) /
                             static_cast<double>(n);
        twiddles[j] = Complex(std::cos(angle), std::sin(angle));
    }

    bump(g_plansBuilt);
}

/**
 * Radix-2 butterflies on explicit real arithmetic. v = x * w is
 * computed as re = xr*wr - xi*wi, im = xr*wi + xi*wr: the products
 * and sums std::complex multiplication performs on finite input,
 * without its NaN-recovery branch, so every output bit is unchanged.
 * The inverse negates wi (conj(w)). Twiddle-outer loops load each
 * twiddle once per stage.
 */
template <bool Inverse>
void
FftPlan::transform(Complex *data) const
{
    const std::size_t n = points;
    for (std::size_t i = 1; i < n; ++i) {
        const std::size_t j = bitrev[i];
        if (i < j)
            std::swap(data[i], data[j]);
    }

    // std::complex<double> is layout-compatible with double[2].
    double *d = reinterpret_cast<double *>(data);
    for (std::size_t len = 2; len <= n; len <<= 1) {
        const std::size_t half_len = len / 2;
        const std::size_t stride = n / len;
        for (std::size_t k = 0; k < half_len; ++k) {
            const Complex w = twiddles[k * stride];
            const double wr = w.real();
            const double wi = Inverse ? -w.imag() : w.imag();
            for (std::size_t i = k; i < n; i += len) {
                double *u = d + 2 * i;
                double *x = d + 2 * (i + half_len);
                const double vr = x[0] * wr - x[1] * wi;
                const double vi = x[0] * wi + x[1] * wr;
                const double ur = u[0];
                const double ui = u[1];
                u[0] = ur + vr;
                u[1] = ui + vi;
                x[0] = ur - vr;
                x[1] = ui - vi;
            }
        }
    }

    if constexpr (Inverse) {
        const double scale = 1.0 / static_cast<double>(n);
        for (std::size_t i = 0; i < n; ++i)
            data[i] *= scale;
    }
}

void
FftPlan::forward(Complex *data) const
{
    bump(g_planned);
    transform<false>(data);
}

void
FftPlan::inverse(Complex *data) const
{
    bump(g_planned);
    transform<true>(data);
}

void
FftPlan::forward(std::vector<Complex> &data) const
{
    if (data.size() != points)
        throw ConfigError("FFT plan for " + std::to_string(points) +
                          " points applied to " +
                          std::to_string(data.size()));
    forward(data.data());
}

void
FftPlan::inverse(std::vector<Complex> &data) const
{
    if (data.size() != points)
        throw ConfigError("FFT plan for " + std::to_string(points) +
                          " points applied to " +
                          std::to_string(data.size()));
    inverse(data.data());
}

void
FftPlan::forwardReal(const double *samples, Complex *out) const
{
    bump(g_plannedReal);
    const std::size_t n = points;
    if (n == 1) {
        out[0] = Complex(samples[0], 0.0);
        return;
    }

    // Pack pairs of real samples into half-size complex points and
    // run the half transform in place on the output buffer.
    const std::size_t h = n / 2;
    for (std::size_t j = 0; j < h; ++j)
        out[j] = Complex(samples[2 * j], samples[2 * j + 1]);
    half->forward(out);

    // Untangle Z[k] = FFT(even) + i*FFT(odd) into the full spectrum:
    //   Fe[k] = (Z[k] + conj(Z[h-k])) / 2
    //   Fo[k] = (Z[k] - conj(Z[h-k])) / 2i
    //   X[k]      = Fe[k] + W^k Fo[k]     (W = exp(-2*pi*i/n))
    //   X[k + h]  = Fe[k] - W^k Fo[k]
    // Pairs (k, h-k) are resolved together so the in-place writes
    // never clobber a still-needed Z.
    const Complex z0 = out[0];
    out[0] = Complex(z0.real() + z0.imag(), 0.0);
    out[h] = Complex(z0.real() - z0.imag(), 0.0);
    for (std::size_t k = 1; k < h - k; ++k) {
        const std::size_t m = h - k;
        const Complex zk = out[k];
        const Complex zm = out[m];
        const Complex fek = 0.5 * (zk + std::conj(zm));
        const Complex fok =
            Complex(0.0, -0.5) * (zk - std::conj(zm));
        const Complex fem = 0.5 * (zm + std::conj(zk));
        const Complex fom =
            Complex(0.0, -0.5) * (zm - std::conj(zk));
        const Complex tk = twiddles[k] * fok;
        const Complex tm = twiddles[m] * fom;
        out[k] = fek + tk;
        out[k + h] = fek - tk;
        out[m] = fem + tm;
        out[m + h] = fem - tm;
    }
    if (h >= 2) {
        // Quarter point k = n/4: W^k = -i, so X[k] = conj(Z[k]).
        const std::size_t q = h / 2;
        const Complex zq = out[q];
        out[q] = std::conj(zq);
        out[q + h] = zq;
    }
}

void
FftPlan::forwardReal(const std::vector<double> &samples,
                     std::vector<Complex> &out) const
{
    if (samples.size() != points)
        throw ConfigError("FFT plan for " + std::to_string(points) +
                          " points applied to " +
                          std::to_string(samples.size()));
    out.resize(points);
    forwardReal(samples.data(), out.data());
}

void
FftPlan::inverseReal(Complex *spectrum, double *out) const
{
    bump(g_plannedReal);
    const std::size_t n = points;
    if (n == 1) {
        out[0] = spectrum[0].real();
        return;
    }

    // Reverse of the forwardReal untangle: rebuild the packed
    // half-size spectrum Z[k] = Fe[k] + i*Fo[k], inverse-transform it
    // (the half plan's 1/(n/2) scaling is exactly right), and unpack
    // interleaved real samples.
    const std::size_t h = n / 2;
    for (std::size_t k = 0; k < h; ++k) {
        const Complex xk = spectrum[k];
        const Complex xh = spectrum[k + h];
        const Complex fe = 0.5 * (xk + xh);
        const Complex fo =
            std::conj(twiddles[k]) * (0.5 * (xk - xh));
        spectrum[k] = fe + Complex(-fo.imag(), fo.real());
    }
    half->inverse(spectrum);
    for (std::size_t j = 0; j < h; ++j) {
        out[2 * j] = spectrum[j].real();
        out[2 * j + 1] = spectrum[j].imag();
    }
}

void
FftPlan::inverseReal(std::vector<Complex> &spectrum,
                     std::vector<double> &out) const
{
    if (spectrum.size() != points)
        throw ConfigError("FFT plan for " + std::to_string(points) +
                          " points applied to " +
                          std::to_string(spectrum.size()));
    out.resize(points);
    inverseReal(spectrum.data(), out.data());
}

std::shared_ptr<const FftPlan>
FftPlan::forSize(std::size_t n)
{
    if (!isPowerOfTwo(n))
        throw ConfigError("FFT plan size must be a power of two, got " +
                          std::to_string(n));

    static std::mutex lock;
    static std::unordered_map<std::size_t,
                              std::shared_ptr<const FftPlan>>
        cache;

    std::lock_guard<std::mutex> guard(lock);
    auto it = cache.find(n);
    if (it != cache.end()) {
        bump(g_cacheHits);
        return it->second;
    }

    // Build every missing size bottom-up so each plan links the
    // cached half-size plan instead of duplicating the chain.
    std::shared_ptr<const FftPlan> prev;
    for (std::size_t s = 1; s <= n; s <<= 1) {
        auto found = cache.find(s);
        if (found != cache.end()) {
            prev = found->second;
            continue;
        }
        std::shared_ptr<const FftPlan> plan(new FftPlan(s, prev));
        cache.emplace(s, plan);
        prev = plan;
    }
    return prev;
}

} // namespace sidewinder::dsp
