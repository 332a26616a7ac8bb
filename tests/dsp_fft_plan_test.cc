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
 * into a +0, fails here.
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
    FftPlan plan(n);
    plan.forward(planned);

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
    FftPlan::forSize(n)->inverse(planned);

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

    const auto restored = ifftToReal(fftReal(samples));
    ASSERT_EQ(restored.size(), n);
    for (std::size_t i = 0; i < n; ++i)
        EXPECT_NEAR(restored[i], samples[i], 1e-9);
}

TEST_P(FftPlanProperty, RealRoundTripThroughHalfSizeTransforms)
{
    const std::size_t n = randomPowerOfTwo();
    const auto samples = randomSamples(n);
    const auto plan = FftPlan::forSize(n);

    std::vector<Complex> spectrum;
    plan->forwardReal(samples, spectrum);
    std::vector<double> restored;
    plan->inverseReal(spectrum, restored);

    ASSERT_EQ(restored.size(), n);
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

    WindowPartitioner reference(size, type, hop);
    WindowPartitioner reused(size, type, hop);
    std::vector<double> frame;
    for (int i = 0; i < 500; ++i) {
        const double sample = rng.uniform(-3.0, 3.0);
        const auto expected = reference.push(sample);
        const bool emitted = reused.pushInto(sample, frame);
        ASSERT_EQ(emitted, expected.has_value());
        if (!emitted)
            continue;
        ASSERT_EQ(frame.size(), expected->size());
        for (std::size_t k = 0; k < frame.size(); ++k)
            EXPECT_DOUBLE_EQ(frame[k], (*expected)[k]);
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
    EXPECT_THROW(FftPlan plan(12), ConfigError);
    EXPECT_THROW(FftPlan::forSize(0), ConfigError);
    EXPECT_THROW(FftPlan::forSize(100), ConfigError);
}

TEST(FftPlan, SizeCheckedOverloadsReject)
{
    const auto plan = FftPlan::forSize(8);
    std::vector<Complex> wrong(4);
    EXPECT_THROW(plan->forward(wrong), ConfigError);
    EXPECT_THROW(plan->inverse(wrong), ConfigError);
}

TEST(FftPlan, TrivialSizes)
{
    std::vector<Complex> one{Complex(3.5, -1.0)};
    FftPlan::forSize(1)->forward(one);
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
    plan->forward(data);
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

} // namespace
} // namespace sidewinder::dsp
