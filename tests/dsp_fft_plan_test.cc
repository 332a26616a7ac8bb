/**
 * @file
 * Property tests for the planned FFT path: FftPlan and the real-input
 * transforms must match the naive reference transform to within 1e-9
 * across random power-of-two sizes and signals, round-trip exactly,
 * and reuse cached plans. The zero-allocation property itself is
 * verified by the bench-mode allocation counter in bench_dsp_micro.
 * Their exact output bits are pinned as FNV-1a digests in
 * tests/data/fft/planned.golden (uniform random frames) and
 * tests/data/fft/edge.golden (signed zeros, impulses, extreme and
 * subnormal magnitudes; regenerate either with SW_UPDATE_GOLDENS=1),
 * so a change that rounds any butterfly differently, or turns a -0
 * into a +0, fails here. magnitudesInto(), glibc's hypot written out
 * on two lanes, is held to std::abs and std::hypot bit for bit
 * (Magnitudes.*), and its magnitudes of edge.golden's inputs are
 * pinned in tests/data/fft/magnitudes.golden.
 */

#include <cinttypes>
#include <cmath>
#include <complex>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <limits>
#include <sstream>
#include <string>

#include <gtest/gtest.h>

#include "dsp/fft.h"
#include "dsp/fft_plan.h"
#include "dsp/filters.h"
#include "dsp/window.h"
#include "support/error.h"
#include "support/rng.h"
#include "trace/audio_gen.h"

namespace sidewinder::dsp {
namespace {

class FftPlanProperty : public ::testing::TestWithParam<int>
{
  protected:
    Rng rng{static_cast<std::uint64_t>(GetParam())};

    std::size_t
    randomPowerOfTwo(int min_log2 = 0, int max_log2 = 12)
    {
        return static_cast<std::size_t>(1)
               << rng.uniformInt(min_log2, max_log2);
    }

    std::vector<double>
    randomSamples(std::size_t n, double lo = -10.0, double hi = 10.0)
    {
        std::vector<double> out(n);
        for (auto &v : out)
            v = rng.uniform(lo, hi);
        return out;
    }

    std::vector<Complex>
    randomComplex(std::size_t n)
    {
        std::vector<Complex> out(n);
        for (auto &v : out)
            v = Complex(rng.uniform(-10.0, 10.0),
                        rng.uniform(-10.0, 10.0));
        return out;
    }
};

TEST_P(FftPlanProperty, ForwardMatchesNaiveTransform)
{
    const std::size_t n = randomPowerOfTwo();
    const auto signal = randomComplex(n);

    auto planned = signal;
    FftPlan::forSize(n)->forward(planned.data());

    auto reference = signal;
    naiveFft(reference);

    ASSERT_EQ(planned.size(), reference.size());
    for (std::size_t i = 0; i < n; ++i)
        EXPECT_NEAR(std::abs(planned[i] - reference[i]), 0.0, 1e-9)
            << "bin " << i << " of " << n;
}

TEST_P(FftPlanProperty, InverseMatchesNaiveTransform)
{
    const std::size_t n = randomPowerOfTwo();
    const auto spectrum = randomComplex(n);

    auto planned = spectrum;
    FftPlan::forSize(n)->inverse(planned.data());

    auto reference = spectrum;
    naiveIfft(reference);

    for (std::size_t i = 0; i < n; ++i)
        EXPECT_NEAR(std::abs(planned[i] - reference[i]), 0.0, 1e-9);
}

TEST_P(FftPlanProperty, RealForwardMatchesNaiveTransform)
{
    const std::size_t n = randomPowerOfTwo();
    const auto samples = randomSamples(n, -1.0, 1.0);

    std::vector<Complex> planned;
    FftPlan::forSize(n)->forwardReal(samples, planned);

    std::vector<Complex> reference(samples.begin(), samples.end());
    naiveFft(reference);

    ASSERT_EQ(planned.size(), n);
    for (std::size_t i = 0; i < n; ++i)
        EXPECT_NEAR(std::abs(planned[i] - reference[i]), 0.0, 1e-9)
            << "bin " << i << " of " << n;
}

TEST_P(FftPlanProperty, FftRealFreeFunctionMatchesNaive)
{
    const std::size_t n = randomPowerOfTwo(0, 10);
    const auto samples = randomSamples(n, -5.0, 5.0);

    const auto planned = fftReal(samples);
    std::vector<Complex> reference(samples.begin(), samples.end());
    naiveFft(reference);

    for (std::size_t i = 0; i < n; ++i)
        EXPECT_NEAR(std::abs(planned[i] - reference[i]), 0.0, 1e-9);
}

TEST_P(FftPlanProperty, IfftInvertsFftAfterTwiddleTableChange)
{
    const std::size_t n = randomPowerOfTwo();
    const auto samples = randomSamples(n);

    auto spectrum = fftReal(samples);
    FftPlan::forSize(n)->inverse(spectrum.data());
    for (std::size_t i = 0; i < n; ++i)
        EXPECT_NEAR(spectrum[i].real(), samples[i], 1e-9);
}

TEST_P(FftPlanProperty, RealRoundTripThroughHalfSizeTransforms)
{
    const std::size_t n = randomPowerOfTwo();
    const auto samples = randomSamples(n);
    const auto plan = FftPlan::forSize(n);

    std::vector<Complex> spectrum;
    plan->forwardReal(samples, spectrum);
    std::vector<double> restored(n);
    plan->inverseReal(spectrum.data(), restored.data());

    for (std::size_t i = 0; i < n; ++i)
        EXPECT_NEAR(restored[i], samples[i], 1e-9);
}

TEST_P(FftPlanProperty, RealSpectrumIsConjugateSymmetric)
{
    const std::size_t n = randomPowerOfTwo(1, 12);
    const auto samples = randomSamples(n);

    std::vector<Complex> spectrum;
    FftPlan::forSize(n)->forwardReal(samples, spectrum);

    EXPECT_NEAR(spectrum[0].imag(), 0.0, 1e-9);
    EXPECT_NEAR(spectrum[n / 2].imag(), 0.0, 1e-9);
    for (std::size_t k = 1; k < n / 2; ++k)
        EXPECT_NEAR(
            std::abs(spectrum[k] - std::conj(spectrum[n - k])), 0.0,
            1e-9);
}

TEST_P(FftPlanProperty, BlockFilterIntoMatchesAllocatingApply)
{
    const std::size_t n = randomPowerOfTwo(2, 10);
    const auto frame = randomSamples(n);
    const double rate = 128.0;
    FftBlockFilter filter(PassBand::LowPass, rng.uniform(5.0, 50.0),
                          rate);

    const auto reference = filter.apply(frame);
    std::vector<double> reused;
    filter.applyInto(frame, reused);
    filter.applyInto(frame, reused); // second call reuses scratch

    ASSERT_EQ(reused.size(), reference.size());
    for (std::size_t i = 0; i < n; ++i)
        EXPECT_NEAR(reused[i], reference[i], 1e-9);
}

TEST_P(FftPlanProperty, WindowPushIntoMatchesPush)
{
    const std::size_t size =
        static_cast<std::size_t>(rng.uniformInt(2, 64));
    const std::size_t hop = static_cast<std::size_t>(
        rng.uniformInt(1, static_cast<int>(size)));
    const bool hamming = rng.uniformInt(0, 1) == 1;
    const auto type = hamming ? WindowType::Hamming
                              : WindowType::Rectangular;

    // Each frame is the last `size` samples times the window, one
    // every `hop` samples once the first `size` have arrived.
    WindowPartitioner reused(size, type, hop);
    std::vector<double> history;
    std::vector<double> frame;
    for (int i = 0; i < 500; ++i) {
        history.push_back(rng.uniform(-3.0, 3.0));
        const bool emitted = reused.pushInto(history.back(), frame);
        ASSERT_EQ(emitted, history.size() >= size &&
                               (history.size() - size) % hop == 0);
        if (!emitted)
            continue;
        ASSERT_EQ(frame.size(), size);
        const double *start = history.data() + history.size() - size;
        for (std::size_t k = 0; k < size; ++k)
            EXPECT_DOUBLE_EQ(frame[k],
                             start[k] * (hamming
                                             ? hammingCoefficient(k, size)
                                             : 1.0));
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, FftPlanProperty,
                         ::testing::Range(1, 17));

TEST(FftPlan, CacheSharesInstances)
{
    const auto a = FftPlan::forSize(256);
    const auto b = FftPlan::forSize(256);
    EXPECT_EQ(a.get(), b.get());
    EXPECT_EQ(a->size(), 256u);
}

TEST(FftPlan, RejectsNonPowerOfTwoSizes)
{
    EXPECT_THROW(FftPlan::forSize(12), ConfigError);
    EXPECT_THROW(FftPlan::forSize(0), ConfigError);
    EXPECT_THROW(FftPlan::forSize(100), ConfigError);
}

TEST(FftPlan, SizeCheckedOverloadsReject)
{
    const auto plan = FftPlan::forSize(8);
    std::vector<double> wrong(4);
    std::vector<Complex> out;
    EXPECT_THROW(plan->forwardReal(wrong, out), ConfigError);
}

TEST(FftPlan, TrivialSizes)
{
    std::vector<Complex> one{Complex(3.5, -1.0)};
    FftPlan::forSize(1)->forward(one.data());
    EXPECT_NEAR(std::abs(one[0] - Complex(3.5, -1.0)), 0.0, 1e-12);

    std::vector<double> pair{2.0, 5.0};
    std::vector<Complex> spectrum;
    FftPlan::forSize(2)->forwardReal(pair, spectrum);
    EXPECT_NEAR(spectrum[0].real(), 7.0, 1e-12);
    EXPECT_NEAR(spectrum[1].real(), -3.0, 1e-12);
}

TEST(FftPlan, CountersTrackPlannedAndNaivePaths)
{
    resetFftCounters();
    const auto plan = FftPlan::forSize(64);
    std::vector<Complex> data(64, Complex(1.0, 0.0));
    plan->forward(data.data());
    auto naive = data;
    naiveFft(naive);

    const auto counters = fftCounters();
    EXPECT_GE(counters.plannedTransforms, 1u);
    EXPECT_GE(counters.naiveTransforms, 1u);
}

/** FNV-1a over the bytes of @p count doubles, continuing @p hash. */
std::uint64_t
fnv1a(const double *values, std::size_t count, std::uint64_t hash)
{
    for (std::size_t i = 0; i < count; ++i) {
        std::uint64_t bits = 0;
        std::memcpy(&bits, &values[i], sizeof bits);
        for (int byte = 0; byte < 8; ++byte) {
            hash ^= (bits >> (8 * byte)) & 0xffu;
            hash *= 0x100000001b3u;
        }
    }
    return hash;
}

std::uint64_t
fnv1a(const std::vector<Complex> &values, std::uint64_t hash)
{
    // std::complex<double> is layout-compatible with double[2].
    return fnv1a(reinterpret_cast<const double *>(values.data()),
                 2 * values.size(), hash);
}

/**
 * Compare @p actual with tests/data/fft/@p name, or rewrite the file
 * when SW_UPDATE_GOLDENS is set.
 */
void
expectGolden(const char *name, const std::string &actual)
{
    const auto path = std::filesystem::path(SW_TEST_DATA_DIR) / "fft" / name;
    if (std::getenv("SW_UPDATE_GOLDENS") != nullptr) {
        std::filesystem::create_directories(path.parent_path());
        std::ofstream out(path);
        ASSERT_TRUE(out) << path;
        out << actual;
        return;
    }
    std::ifstream golden(path);
    ASSERT_TRUE(golden)
        << path << " missing — regenerate with SW_UPDATE_GOLDENS=1";
    std::ostringstream expected;
    expected << golden.rdbuf();
    EXPECT_EQ(actual, expected.str());
}

TEST(FftPlanGolden, OutputBitsArePinned)
{
    constexpr std::uint64_t kOffset = 0xcbf29ce484222325u;
    Rng rng(20160402);
    std::string actual;
    for (std::size_t n = 1; n <= 4096; n <<= 1) {
        const auto plan = FftPlan::forSize(n);
        std::uint64_t forward = kOffset, inverse = kOffset;
        std::uint64_t forward_real = kOffset, inverse_real = kOffset;
        for (int input = 0; input < 4; ++input) {
            std::vector<Complex> signal(n);
            for (auto &v : signal)
                v = Complex(rng.uniform(-10.0, 10.0),
                            rng.uniform(-10.0, 10.0));
            auto data = signal;
            plan->forward(data.data());
            forward = fnv1a(data, forward);
            data = signal;
            plan->inverse(data.data());
            inverse = fnv1a(data, inverse);

            std::vector<double> samples(n);
            for (auto &v : samples)
                v = rng.uniform(-1.0, 1.0);
            std::vector<Complex> spectrum(n);
            plan->forwardReal(samples.data(), spectrum.data());
            forward_real = fnv1a(spectrum, forward_real);
            std::vector<double> restored(n);
            plan->inverseReal(spectrum.data(), restored.data());
            inverse_real = fnv1a(restored.data(), n, inverse_real);
        }
        char line[160];
        std::snprintf(line, sizeof line,
                      "n=%zu forward=%016" PRIx64 " inverse=%016" PRIx64
                      " forwardReal=%016" PRIx64
                      " inverseReal=%016" PRIx64 "\n",
                      n, forward, inverse, forward_real, inverse_real);
        actual += line;
    }
    expectGolden("planned.golden", actual);
}

/** Frames of one edge-input family for an n-point transform. */
using EdgeFrames = std::vector<std::vector<Complex>>;

/**
 * Inputs that uniform random frames never reach: signed zeros, exact
 * cancellations, impulses, constant and alternating frames, frames
 * with one part zero, and magnitudes at 2^±200 and in the subnormal
 * range. All finite: non-finite input is outside the transforms'
 * bit-for-bit contract.
 */
EdgeFrames
edgeFrames(const std::string &kind, std::size_t n, Rng &rng)
{
    const auto filled = [n](auto value) {
        std::vector<Complex> frame(n);
        for (std::size_t i = 0; i < n; ++i)
            frame[i] = value(i);
        return frame;
    };
    const auto random = [&](double scale, bool re, bool im) {
        return filled([&](std::size_t) {
            const double r = re ? rng.uniform(-10.0, 10.0) * scale : 0.0;
            const double i = im ? rng.uniform(-10.0, 10.0) * scale : 0.0;
            return Complex(r, i);
        });
    };
    if (kind == "zeros")
        return {filled([](std::size_t) { return Complex(0.0, 0.0); })};
    if (kind == "negative_zeros")
        return {
            filled([](std::size_t) { return Complex(-0.0, -0.0); })};
    if (kind == "mixed_zeros")
        return {filled([](std::size_t i) {
                    return Complex(i & 1 ? -0.0 : 0.0, i & 2 ? -0.0 : 0.0);
                }),
                filled([&](std::size_t) {
                    const double r = rng.uniformInt(0, 1) ? -0.0 : 0.0;
                    const double i = rng.uniformInt(0, 1) ? -0.0 : 0.0;
                    return Complex(r, i);
                })};
    if (kind == "impulses") {
        EdgeFrames frames;
        for (const std::size_t at : {std::size_t{0}, std::size_t{1}, n / 2,
                                     n - 1}) {
            for (const Complex value : {Complex(1.0, 0.0), Complex(0.0, 1.0),
                                        Complex(-2.5, 0.75)})
                frames.push_back(filled([&](std::size_t i) {
                    return i == at % n ? value : Complex(0.0, 0.0);
                }));
        }
        return frames;
    }
    if (kind == "dc")
        return {filled([](std::size_t) { return Complex(1.0, 0.0); }),
                filled([](std::size_t) { return Complex(-3.0, 3.0); })};
    if (kind == "alternating")
        return {filled([](std::size_t i) {
                    return Complex(i & 1 ? -1.0 : 1.0, 0.0);
                }),
                filled([](std::size_t i) {
                    return Complex(i & 1 ? -1.0 : 1.0, i & 1 ? 1.0 : -1.0);
                })};
    if (kind == "real")
        return {random(1.0, true, false), random(1.0, true, false)};
    if (kind == "imaginary")
        return {random(1.0, false, true), random(1.0, false, true)};
    if (kind == "scaled_up")
        return {random(std::ldexp(1.0, 200), true, true),
                random(std::ldexp(1.0, 200), true, false)};
    if (kind == "scaled_down")
        return {random(std::ldexp(1.0, -200), true, true),
                random(std::ldexp(1.0, -200), false, true)};
    if (kind == "subnormal")
        return {random(std::ldexp(1.0, -1060), true, true),
                filled([&](std::size_t) {
                    const double tiny =
                        std::numeric_limits<double>::denorm_min();
                    const auto r = rng.uniformInt(-4, 4);
                    const auto i = rng.uniformInt(-4, 4);
                    return Complex(static_cast<double>(r) * tiny,
                                   static_cast<double>(i) * tiny);
                })};
    ADD_FAILURE() << "unknown edge kind " << kind;
    return {};
}

TEST(FftPlanGolden, EdgeInputBitsArePinned)
{
    constexpr std::uint64_t kOffset = 0xcbf29ce484222325u;
    const char *const kinds[] = {
        "zeros",       "negative_zeros", "mixed_zeros", "impulses",
        "dc",          "alternating",    "real",        "imaginary",
        "scaled_up",   "scaled_down",    "subnormal"};
    Rng rng(20161104);
    std::string actual;
    for (std::size_t n = 1; n <= 4096; n <<= 1) {
        const auto plan = FftPlan::forSize(n);
        for (const char *kind : kinds) {
            std::uint64_t forward = kOffset, inverse = kOffset;
            std::uint64_t forward_real = kOffset, inverse_real = kOffset;
            for (const auto &frame : edgeFrames(kind, n, rng)) {
                auto data = frame;
                plan->forward(data.data());
                forward = fnv1a(data, forward);
                data = frame;
                plan->inverse(data.data());
                inverse = fnv1a(data, inverse);

                // The real transforms see each part of the frame as a
                // real signal, and inverseReal also takes the frame
                // itself as a (not necessarily symmetric) spectrum.
                std::vector<double> samples(n), restored(n);
                for (const int part : {0, 1}) {
                    for (std::size_t i = 0; i < n; ++i)
                        samples[i] =
                            part == 0 ? frame[i].real() : frame[i].imag();
                    std::vector<Complex> spectrum(n);
                    plan->forwardReal(samples.data(), spectrum.data());
                    forward_real = fnv1a(spectrum, forward_real);
                    plan->inverseReal(spectrum.data(), restored.data());
                    inverse_real = fnv1a(restored.data(), n, inverse_real);
                }
                data = frame;
                plan->inverseReal(data.data(), restored.data());
                inverse_real = fnv1a(restored.data(), n, inverse_real);
            }
            char line[200];
            std::snprintf(line, sizeof line,
                          "n=%zu %s forward=%016" PRIx64
                          " inverse=%016" PRIx64 " forwardReal=%016" PRIx64
                          " inverseReal=%016" PRIx64 "\n",
                          n, kind, forward, inverse, forward_real,
                          inverse_real);
            actual += line;
        }
    }
    expectGolden("edge.golden", actual);
}

TEST(FftPlanGolden, MagnitudeBitsArePinned)
{
    constexpr std::uint64_t kOffset = 0xcbf29ce484222325u;
    const char *const kinds[] = {
        "zeros",       "negative_zeros", "mixed_zeros", "impulses",
        "dc",          "alternating",    "real",        "imaginary",
        "scaled_up",   "scaled_down",    "subnormal"};
    Rng rng(20161104);
    std::string actual;
    std::vector<double> mags;
    const auto digest = [&](const std::vector<Complex> &bins,
                            std::uint64_t hash) {
        mags.assign(bins.size(), -1.0);
        magnitudesInto(bins.data(), bins.size(), mags.data());
        return fnv1a(mags.data(), mags.size(), hash);
    };
    for (std::size_t n = 1; n <= 4096; n <<= 1) {
        const auto plan = FftPlan::forSize(n);
        for (const char *kind : kinds) {
            // The frame itself, its forward spectrum, and the real
            // spectrum of each of its parts (edgeFrames draws the same
            // frames as EdgeInputBitsArePinned).
            std::uint64_t frames = kOffset, forward = kOffset;
            std::uint64_t forward_real = kOffset;
            for (const auto &frame : edgeFrames(kind, n, rng)) {
                frames = digest(frame, frames);
                auto data = frame;
                plan->forward(data.data());
                forward = digest(data, forward);
                std::vector<double> samples(n);
                for (const int part : {0, 1}) {
                    for (std::size_t i = 0; i < n; ++i)
                        samples[i] =
                            part == 0 ? frame[i].real() : frame[i].imag();
                    plan->forwardReal(samples.data(), data.data());
                    forward_real = digest(data, forward_real);
                }
            }
            char line[200];
            std::snprintf(line, sizeof line,
                          "n=%zu %s frame=%016" PRIx64
                          " forward=%016" PRIx64 " forwardReal=%016" PRIx64
                          "\n",
                          n, kind, frames, forward, forward_real);
            actual += line;
        }
    }
    expectGolden("magnitudes.golden", actual);
}

/**
 * Bins whose magnitudes must equal libm's: magnitudesInto() over all
 * of them at once must give std::abs(bin) and std::hypot(re, im) bit
 * for bit, NaN payloads included. Returns the mismatches and reports
 * the first few.
 */
std::size_t
libmMismatches(const std::vector<Complex> &bins)
{
    std::vector<double> mags(bins.size() + 1, -1.0);
    magnitudesInto(bins.data(), bins.size(), mags.data());
    EXPECT_EQ(mags.back(), -1.0) << "wrote past bin " << bins.size();
    const auto bits = [](double v) {
        std::uint64_t b = 0;
        std::memcpy(&b, &v, sizeof b);
        return b;
    };
    std::size_t mismatches = 0;
    for (std::size_t i = 0; i < bins.size(); ++i) {
        const double re = bins[i].real(), im = bins[i].imag();
        const std::uint64_t got = bits(mags[i]);
        if (got == bits(std::abs(bins[i])) &&
            got == bits(std::hypot(re, im)))
            continue;
        if (++mismatches <= 8)
            ADD_FAILURE() << std::hexfloat << "|(" << re << ", " << im
                          << ")| = " << mags[i] << ", libm "
                          << std::hypot(re, im);
    }
    return mismatches;
}

/** @p v and the doubles either side of it. */
std::vector<double>
around(double v)
{
    constexpr double kInf = std::numeric_limits<double>::infinity();
    return {std::nextafter(v, 0.0), v, std::nextafter(v, kInf)};
}

TEST(Magnitudes, EqualLibmOnTenMillionPairs)
{
    // Three families of 2^22 pairs, checked in batches so the
    // two-lane loop, its odd tail and the libm fallback all run:
    // uniform, raw 64-bit patterns (NaNs, infinities, subnormals),
    // and ldexp-scaled mantissas across the whole exponent range,
    // the parts' exponents within 64 of each other so most pairs
    // land in glibc's common range and many at its edges.
    Rng rng(20161105);
    constexpr std::size_t kBatch = 4097;
    std::vector<Complex> bins(kBatch);
    std::size_t checked = 0, mismatches = 0;
    for (int family = 0; family < 3; ++family) {
        for (std::size_t done = 0; done < (std::size_t{1} << 22);
             done += kBatch) {
            for (auto &z : bins) {
                if (family == 0) {
                    z = Complex(rng.uniform(-10.0, 10.0),
                                rng.uniform(-10.0, 10.0));
                } else if (family == 1) {
                    const std::uint64_t words[2] = {rng.next(),
                                                    rng.next()};
                    std::memcpy(&z, words, sizeof words);
                } else {
                    const auto e = rng.uniformInt(-1074, 1024);
                    const auto f = e + rng.uniformInt(-64, 64);
                    const double re = std::ldexp(rng.uniform(0.5, 1.0),
                                                 static_cast<int>(e));
                    const double im = std::ldexp(rng.uniform(0.5, 1.0),
                                                 static_cast<int>(f));
                    z = Complex(rng.uniformInt(0, 1) ? -re : re,
                                rng.uniformInt(0, 1) ? -im : im);
                }
            }
            mismatches += libmMismatches(bins);
            checked += bins.size();
        }
    }
    EXPECT_GE(checked, 10'000'000u);
    EXPECT_EQ(mismatches, 0u);
}

TEST(Magnitudes, EqualLibmAtRangeEdges)
{
    constexpr double kInf = std::numeric_limits<double>::infinity();
    const double tiny = std::numeric_limits<double>::denorm_min();
    std::vector<double> values{0.0, 1.0, 3.0, kInf,
                               std::numeric_limits<double>::quiet_NaN(),
                               std::numeric_limits<double>::signaling_NaN()};
    for (const double edge :
         {0x1p511, 0x1p-459, 0x1p-511, 0x1p-54, 0x1p-1022, 0x1p-1050, tiny,
          std::numeric_limits<double>::max(), 0x1p-513, 0x1p-565, 0x1p457})
        for (const double v : around(edge))
            values.push_back(v);
    // Signs by negation, which flips only the sign bit: a product
    // would quiet the signalling NaN.
    std::vector<Complex> bins;
    for (const double a : values)
        for (const double b : values)
            for (const bool negate_a : {false, true})
                for (const bool negate_b : {false, true})
                    bins.emplace_back(negate_a ? -a : a, negate_b ? -b : b);
    // ay = ax·2^-54, the last ratio glibc hands to ax + ay, and its
    // neighbours, at scales inside and at the edges of the range.
    for (const double ax : {1.0, 1.5, 3.0, 0x1p511, 0x1p-405, 0x1p-457,
                            0x1.8p300, std::nextafter(0x1p511, 0.0)}) {
        for (const double ay : around(ax * 0x1p-54)) {
            bins.emplace_back(ax, ay);
            bins.emplace_back(-ay, ax);
        }
    }
    EXPECT_EQ(libmMismatches(bins), 0u);
}

TEST(Magnitudes, EqualLibmWhereTheRootIsTwiceTheSmallerPart)
{
    // sqrt(ax² + ay²) == 2·ay exactly, where glibc's `h <= 2·ay`
    // takes its first correction and `<` would take the second: ax
    // within a few ulps of √3·ay, at scales across the common range.
    Rng rng(20161106);
    std::vector<Complex> bins;
    while (bins.size() < 4096) {
        const double ay = std::ldexp(rng.uniform(1.0, 2.0),
                                     static_cast<int>(
                                         rng.uniformInt(-500, 500)));
        double ax = std::sqrt(3.0) * ay;
        for (int step = 0; step < 8; ++step)
            ax = std::nextafter(ax, 0.0);
        for (int step = 0; step < 16; ++step) {
            ax = std::nextafter(ax, 2.0 * ay);
            if (std::sqrt(ax * ax + ay * ay) != 2.0 * ay)
                continue;
            const double re = rng.uniformInt(0, 1) ? -ax : ax;
            const double im = rng.uniformInt(0, 1) ? -ay : ay;
            bins.push_back(rng.uniformInt(0, 1) ? Complex(re, im)
                                                : Complex(im, re));
        }
    }
    EXPECT_EQ(libmMismatches(bins), 0u);
}

TEST(Magnitudes, EqualLibmOnShortAndOddCounts)
{
    Rng rng(20161107);
    EXPECT_EQ(libmMismatches({}), 0u);
    magnitudesInto(nullptr, 0, nullptr);
    for (const std::size_t n : {1, 2, 3, 129}) {
        std::vector<Complex> bins(n);
        for (auto &z : bins)
            z = Complex(rng.uniform(-10.0, 10.0), rng.uniform(-10.0, 10.0));
        EXPECT_EQ(libmMismatches(bins), 0u) << n << " bins";
    }
}

TEST(Magnitudes, EqualLibmOnAudioSpectra)
{
    // Every bin of the real spectra the audio classifiers take: frames
    // of a generated office trace at three transform sizes, half
    // overlapping.
    trace::AudioTraceConfig config;
    config.durationSeconds = 60.0;
    config.seed = 20161108;
    const auto trace = trace::generateAudioTrace(config);
    const auto &audio = trace.channels[trace.channelIndex("AUDIO")];
    std::size_t bins_checked = 0, mismatches = 0;
    for (const std::size_t n : {256, 512, 1024}) {
        const auto plan = FftPlan::forSize(n);
        std::vector<Complex> spectrum(n);
        for (std::size_t start = 0; start + n <= audio.size();
             start += n / 2) {
            plan->forwardReal(audio.data() + start, spectrum.data());
            mismatches += libmMismatches(spectrum);
            bins_checked += n;
        }
    }
    EXPECT_GT(bins_checked, 1'000'000u);
    EXPECT_EQ(mismatches, 0u);
}

} // namespace
} // namespace sidewinder::dsp
