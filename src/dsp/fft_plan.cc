#include "dsp/fft_plan.h"

#include <atomic>
#include <bit>
#include <cmath>
#include <cstring>
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
    for (std::size_t i = 1; i < n; ++i) {
        bitrev[i] = static_cast<std::uint32_t>(
            (bitrev[i >> 1] >> 1) | ((i & 1) << (log2n - 1)));
        if (i < bitrev[i])
            swaps.emplace_back(static_cast<std::uint32_t>(i), bitrev[i]);
    }

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

namespace {

/**
 * One complex point (re, im) in a two-double GCC vector: SSE2 on
 * x86-64, scalar pairs where the target has no such register. Points
 * are loaded from and stored to std::complex storage, which is
 * layout-compatible with double[2].
 */
using V2 = double __attribute__((vector_size(16)));

inline V2
load(const double *p)
{
    V2 v;
    std::memcpy(&v, p, sizeof v);
    return v;
}

inline void
store(double *p, V2 v)
{
    std::memcpy(p, &v, sizeof v);
}

inline V2
splat(double x)
{
    return V2{x, x};
}

/** (re, −im): negation is exact, so this is std::conj bit for bit. */
inline V2
conjugate(V2 x)
{
    return V2{x[0], -x[1]};
}

/** A complex factor w = (wr, wi) as the lanes (wr, wr) and (−wi, wi). */
struct Factor
{
    V2 re;
    V2 im;
};

inline Factor
factor(Complex w)
{
    return {splat(w.real()), V2{-w.imag(), w.imag()}};
}

/**
 * x·w = x·(wr, wr) + swap(x)·(−wi, wi): re = xr·wr + xi·(−wi) and
 * im = xi·wr + xr·wi. These are the products and sums GCC's complex
 * multiply forms on finite input, xr·wr − xi·wi and xr·wi + xi·wr
 * (its NaN-recovery call aside): a − b is defined as a + (−b), −wi
 * is exact, and the imaginary sum commutes. The build has no -march
 * and no -ffast-math, so nothing fuses into an FMA and every bit is
 * what the std::complex expression gives.
 */
inline V2
mul(V2 x, Factor w)
{
    return x * w.re + __builtin_shufflevector(x, x, 1, 0) * w.im;
}

/** (u, x) ← (u + x·w, u − x·w): one radix-2 butterfly. */
inline void
butterfly(V2 &u, V2 &x, Factor w)
{
    const V2 v = mul(x, w);
    x = u - v;
    u = u + v;
}

/** to[i] = from[i]·(scale, scale) over @p count points: complex *= double. */
inline void
scalePoints(const double *from, double *to, std::size_t count,
            double scale)
{
    const V2 s = splat(scale);
    for (std::size_t i = 0; i < count; ++i)
        store(to + 2 * i, load(from + 2 * i) * s);
}

/**
 * |re + i·im| per lane, bit for bit glibc's hypot (2.35 and later;
 * the non-FMA kernel of sysdeps/ieee754/dbl-64/e_hypot.c, which the
 * x86-64 libm runs): with ax ≥ ay ≥ 0 the parts' magnitudes,
 * h = sqrt(ax² + ay²), then h −= (t1 + t2) / 2h with the correction
 * glibc picks by `h <= 2·ay`. Each lane runs glibc's operations in
 * its order, and with no FMA in the build nothing fuses, so each
 * rounds as glibc's does. Both corrections are computed and a mask
 * takes glibc's, so no lane branches on its data. Lanes outside
 * glibc's common range (ax > 2^511, ay < 2^-459, ay ≤ ax·2^-54, or a
 * NaN or infinite part, which fails those compares) take other paths
 * in glibc; they are handed to std::hypot itself.
 */
inline V2
hypot2(const Complex &a, const Complex &b)
{
    using Bits = std::uint64_t __attribute__((vector_size(16)));
    const V2 p = load(reinterpret_cast<const double *>(&a));
    const V2 q = load(reinterpret_cast<const double *>(&b));
    const Bits sign = std::bit_cast<Bits>(splat(-0.0));
    const V2 x = std::bit_cast<V2>(
        std::bit_cast<Bits>(__builtin_shufflevector(p, q, 0, 2)) & ~sign);
    const V2 y = std::bit_cast<V2>(
        std::bit_cast<Bits>(__builtin_shufflevector(p, q, 1, 3)) & ~sign);
    const V2 ax = x < y ? y : x;
    const V2 ay = x < y ? x : y;
    const V2 sum = ax * ax + ay * ay;
    const V2 h{std::sqrt(sum[0]), std::sqrt(sum[1])};

    const V2 dy = h - ay;
    const V2 near_t1 = ax * (2.0 * dy - ax);
    const V2 near_t2 = (dy - 2.0 * (ax - ay)) * dy;
    const V2 dx = h - ax;
    const V2 far_t1 = 2.0 * dx * (ax - 2.0 * ay);
    const V2 far_t2 = (4.0 * dx - ay) * ay + dx * dx;
    const V2 t = h <= 2.0 * ay ? near_t1 + near_t2 : far_t1 + far_t2;
    V2 mag = h - t / (2.0 * h);

    const auto common =
        (ax <= 0x1p511) & (ay >= 0x1p-459) & (ay > ax * 0x1p-54);
    if (!(common[0] && common[1])) [[unlikely]] {
        if (!common[0])
            mag[0] = std::hypot(a.real(), a.imag());
        if (!common[1])
            mag[1] = std::hypot(b.real(), b.imag());
    }
    return mag;
}

} // namespace

void
magnitudesInto(const Complex *bins, std::size_t n, double *out)
{
    std::size_t i = 0;
    for (; i + 1 < n; i += 2)
        store(out + i, hypot2(bins[i], bins[i + 1]));
    if (i < n)
        out[i] = hypot2(bins[i], bins[i])[0];
}

void
FftPlan::permute(Complex *data) const
{
    for (const auto &[i, j] : swaps)
        std::swap(data[i], data[j]);
}

/**
 * Radix-2 butterflies, two stages per pass over the data. For each
 * quadruple a = i, b = i + len/2, c = i + len, d = i + 3·len/2, stage
 * len runs (a, b) and (c, d) with w1, then stage 2·len runs (a, c)
 * with w2 and (b, d) with w3: every point sees the operations of the
 * stage-by-stage loop, in the same order. When log2 N is odd, the
 * last stage runs alone. The inverse negates wi (conj(w)). Twiddle-
 * outer loops build each factor once per pass.
 */
template <bool Inverse>
void
FftPlan::butterflies(Complex *data) const
{
    const std::size_t n = points;
    double *d = reinterpret_cast<double *>(data);
    const auto w = [this](std::size_t j) {
        return factor(Inverse ? std::conj(twiddles[j]) : twiddles[j]);
    };

    std::size_t len = 2;
    for (; 2 * len <= n; len *= 4) {
        const std::size_t half_len = len / 2;
        const std::size_t stride = n / len;
        for (std::size_t k = 0; k < half_len; ++k) {
            const Factor w1 = w(k * stride);
            const Factor w2 = w(k * stride / 2);
            const Factor w3 = w((k + half_len) * stride / 2);
            for (std::size_t i = k; i < n; i += 2 * len) {
                double *pa = d + 2 * i;
                double *pb = pa + len;
                double *pc = pa + 2 * len;
                double *pd = pc + len;
                V2 a = load(pa), b = load(pb);
                V2 c = load(pc), e = load(pd);
                butterfly(a, b, w1);
                butterfly(c, e, w1);
                butterfly(a, c, w2);
                butterfly(b, e, w3);
                store(pa, a);
                store(pb, b);
                store(pc, c);
                store(pd, e);
            }
        }
    }
    if (len == n) {
        const std::size_t half_len = n / 2;
        for (std::size_t k = 0; k < half_len; ++k) {
            double *pa = d + 2 * k;
            double *pb = pa + n;
            V2 a = load(pa), b = load(pb);
            butterfly(a, b, w(k));
            store(pa, a);
            store(pb, b);
        }
    }
}

void
FftPlan::forward(Complex *data) const
{
    bump(g_planned);
    permute(data);
    butterflies<false>(data);
}

void
FftPlan::inverse(Complex *data) const
{
    bump(g_planned);
    permute(data);
    butterflies<true>(data);
    double *d = reinterpret_cast<double *>(data);
    scalePoints(d, d, points, 1.0 / static_cast<double>(points));
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

    // Pack pairs of real samples into half-size complex points, each
    // written straight into its bit-reversed slot, and run the half
    // transform's butterflies in place on the output buffer.
    const std::size_t h = n / 2;
    double *d = reinterpret_cast<double *>(out);
    const std::uint32_t *rev = half->bitrev.data();
    for (std::size_t j = 0; j < h; ++j)
        store(d + 2 * rev[j], load(samples + 2 * j));
    bump(g_planned);
    half->butterflies<false>(out);

    // Untangle Z[k] = FFT(even) + i*FFT(odd) into the full spectrum:
    //   Fe[k] = (Z[k] + conj(Z[h-k])) / 2
    //   Fo[k] = (Z[k] - conj(Z[h-k])) / 2i
    //   X[k]      = Fe[k] + W^k Fo[k]     (W = exp(-2*pi*i/n))
    //   X[k + h]  = Fe[k] - W^k Fo[k]
    // Pairs (k, h-k) are resolved together so the in-place writes
    // never clobber a still-needed Z. The halvings are real-by-complex
    // products (each part times 0.5); 1/2i is the complex factor
    // (0, -0.5), multiplied out in full as std::complex does.
    const V2 z0 = load(d);
    out[0] = Complex(z0[0] + z0[1], 0.0);
    out[h] = Complex(z0[0] - z0[1], 0.0);
    const V2 one_half = splat(0.5);
    const Factor over_2i = factor(Complex(0.0, -0.5));
    for (std::size_t k = 1; k < h - k; ++k) {
        const std::size_t m = h - k;
        const V2 zk = load(d + 2 * k);
        const V2 zm = load(d + 2 * m);
        const V2 fek = one_half * (zk + conjugate(zm));
        const V2 fok = mul(zk - conjugate(zm), over_2i);
        const V2 fem = one_half * (zm + conjugate(zk));
        const V2 fom = mul(zm - conjugate(zk), over_2i);
        const V2 tk = mul(fok, factor(twiddles[k]));
        const V2 tm = mul(fom, factor(twiddles[m]));
        store(d + 2 * k, fek + tk);
        store(d + 2 * (k + h), fek - tk);
        store(d + 2 * m, fem + tm);
        store(d + 2 * (m + h), fem - tm);
    }
    if (h >= 2) {
        // Quarter point k = n/4: W^k = -i, so X[k] = conj(Z[k]).
        const std::size_t q = h / 2;
        const V2 zq = load(d + 2 * q);
        store(d + 2 * q, conjugate(zq));
        store(d + 2 * (q + h), zq);
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
    // and unpack interleaved real samples, which are the half
    // transform's points scaled by its 1/(n/2) (exactly right).
    //   Fe[k] = (X[k] + X[k+h]) / 2
    //   Fo[k] = conj(W^k) * ((X[k] - X[k+h]) / 2)
    // The halvings are real-by-complex products, conj(W^k) times the
    // difference a full complex product, and i*Fo[k] = (-Im, Re).
    const std::size_t h = n / 2;
    double *s = reinterpret_cast<double *>(spectrum);
    const V2 one_half = splat(0.5);
    for (std::size_t k = 0; k < h; ++k) {
        const V2 xk = load(s + 2 * k);
        const V2 xh = load(s + 2 * (k + h));
        const V2 fe = one_half * (xk + xh);
        const V2 fo =
            mul(one_half * (xk - xh), factor(std::conj(twiddles[k])));
        store(s + 2 * k, fe + V2{-fo[1], fo[0]});
    }
    bump(g_planned);
    half->permute(spectrum);
    half->butterflies<true>(spectrum);
    scalePoints(s, out, h, 1.0 / static_cast<double>(h));
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
