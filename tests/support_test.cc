/**
 * @file
 * Unit tests for the support module: ring buffer, RNG determinism
 * (the engine and every helper against the standard library's
 * mt19937_64, and chanceThreshold against bernoulli_distribution),
 * and logging levels.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <iostream>
#include <iterator>
#include <limits>
#include <random>
#include <sstream>
#include <utility>
#include <vector>

#include "support/error.h"
#include "support/logging.h"
#include "support/ring_buffer.h"
#include "support/rng.h"

namespace sidewinder {
namespace {

TEST(RingBuffer, RejectsZeroCapacity)
{
    EXPECT_THROW(RingBuffer<int>(0), ConfigError);
}

TEST(RingBuffer, StartsEmpty)
{
    RingBuffer<int> buf(4);
    EXPECT_TRUE(buf.empty());
    EXPECT_FALSE(buf.full());
    EXPECT_EQ(buf.size(), 0u);
    EXPECT_EQ(buf.capacity(), 4u);
}

TEST(RingBuffer, FillsInOrder)
{
    RingBuffer<int> buf(3);
    buf.push(1);
    buf.push(2);
    EXPECT_EQ(buf.size(), 2u);
    EXPECT_EQ(buf[0], 1);
    EXPECT_EQ(buf[1], 2);
    EXPECT_EQ(buf.front(), 1);
    EXPECT_EQ(buf.back(), 2);
}

TEST(RingBuffer, EvictsOldestWhenFull)
{
    RingBuffer<int> buf(3);
    for (int i = 1; i <= 5; ++i)
        buf.push(i);
    EXPECT_TRUE(buf.full());
    EXPECT_EQ(buf.size(), 3u);
    EXPECT_EQ(buf[0], 3);
    EXPECT_EQ(buf[1], 4);
    EXPECT_EQ(buf[2], 5);
}

TEST(RingBuffer, SnapshotIsOldestFirst)
{
    RingBuffer<int> buf(3);
    for (int i = 1; i <= 4; ++i)
        buf.push(i);
    const auto snap = buf.snapshot();
    ASSERT_EQ(snap.size(), 3u);
    EXPECT_EQ(snap[0], 2);
    EXPECT_EQ(snap[2], 4);
}

TEST(RingBuffer, ClearResets)
{
    RingBuffer<int> buf(2);
    buf.push(7);
    buf.clear();
    EXPECT_TRUE(buf.empty());
    buf.push(9);
    EXPECT_EQ(buf.front(), 9);
}

TEST(RingBuffer, OutOfRangeIndexThrows)
{
    RingBuffer<int> buf(2);
    buf.push(1);
    EXPECT_THROW(buf[1], InternalError);
}

/** Every retained element, read through operator[]. */
std::vector<int>
indexed(const RingBuffer<int> &buf)
{
    std::vector<int> out;
    for (std::size_t i = 0; i < buf.size(); ++i)
        out.push_back(buf[i]);
    return out;
}

TEST(RingBuffer, AppendEqualsSinglePushes)
{
    // From every fill level and ring position a bulk append leaves the
    // contents n single pushes leave, mixed with single pushes.
    Rng rng(5);
    int next = 0;
    for (std::size_t cap : {1, 2, 3, 4, 5, 6, 7, 8, 64, 200}) {
        for (std::size_t n = 0; n <= 3 * cap; ++n) {
            RingBuffer<int> bulk(cap);
            RingBuffer<int> single(cap);
            for (int round = 0; round < 4; ++round) {
                // A random stretch of single pushes moves the ring's
                // start and fill level before each append.
                const auto lead = rng.uniformInt(
                    0, static_cast<std::int64_t>(2 * cap));
                for (std::int64_t i = 0; i < lead; ++i, ++next) {
                    bulk.push(next);
                    single.push(next);
                }
                std::vector<int> values(n);
                for (int &v : values)
                    v = next++;
                bulk.append(values.data(), n);
                for (int v : values)
                    single.push(v);

                ASSERT_EQ(bulk.size(), single.size())
                    << "capacity " << cap << ", n " << n;
                ASSERT_EQ(bulk.full(), single.full());
                ASSERT_EQ(bulk.snapshot(), single.snapshot())
                    << "capacity " << cap << ", n " << n;
                ASSERT_EQ(indexed(bulk), bulk.snapshot());
                if (!bulk.empty()) {
                    ASSERT_EQ(bulk.front(), single.front());
                    ASSERT_EQ(bulk.back(), single.back());
                }
            }
        }
    }
}

TEST(Rng, SameSeedSameStream)
{
    Rng a(42);
    Rng b(42);
    for (int i = 0; i < 100; ++i)
        EXPECT_DOUBLE_EQ(a.uniform(0.0, 1.0), b.uniform(0.0, 1.0));
}

TEST(Rng, DifferentSeedsDiffer)
{
    Rng a(1);
    Rng b(2);
    bool any_diff = false;
    for (int i = 0; i < 10; ++i)
        any_diff |= a.uniform(0.0, 1.0) != b.uniform(0.0, 1.0);
    EXPECT_TRUE(any_diff);
}

TEST(Rng, UniformRespectsBounds)
{
    Rng rng(7);
    for (int i = 0; i < 1000; ++i) {
        const double v = rng.uniform(2.0, 3.0);
        EXPECT_GE(v, 2.0);
        EXPECT_LT(v, 3.0);
    }
}

TEST(Rng, UniformIntInclusive)
{
    Rng rng(7);
    bool saw_lo = false;
    bool saw_hi = false;
    for (int i = 0; i < 1000; ++i) {
        const auto v = rng.uniformInt(0, 3);
        EXPECT_GE(v, 0);
        EXPECT_LE(v, 3);
        saw_lo |= v == 0;
        saw_hi |= v == 3;
    }
    EXPECT_TRUE(saw_lo);
    EXPECT_TRUE(saw_hi);
}

TEST(Rng, WeightedIndexSkipsZeroWeights)
{
    Rng rng(11);
    for (int i = 0; i < 200; ++i) {
        const auto idx = rng.weightedIndex({0.0, 1.0, 0.0});
        EXPECT_EQ(idx, 1u);
    }
}

TEST(Rng, GaussianRoughlyCentered)
{
    Rng rng(13);
    double sum = 0.0;
    const int n = 20000;
    for (int i = 0; i < n; ++i)
        sum += rng.gaussian(5.0, 1.0);
    EXPECT_NEAR(sum / n, 5.0, 0.05);
}

TEST(Rng, ForkProducesIndependentStream)
{
    Rng a(99);
    Rng child = a.fork();
    // Child stream differs from the parent's continued stream.
    bool any_diff = false;
    for (int i = 0; i < 10; ++i)
        any_diff |= a.uniform(0.0, 1.0) != child.uniform(0.0, 1.0);
    EXPECT_TRUE(any_diff);
}

TEST(Rng, NextMatchesStdMt19937_64)
{
    for (std::uint64_t seed :
         {std::uint64_t{0}, std::uint64_t{1}, std::uint64_t{5489},
          std::uint64_t{0x5EED5EED},
          std::numeric_limits<std::uint64_t>::max()}) {
        Rng rng(seed);
        std::mt19937_64 oracle(seed);
        for (int i = 0; i < 10000; ++i)
            ASSERT_EQ(rng.next(), oracle())
                << "seed " << seed << " output " << i;
    }
}

TEST(Rng, StandardCheckValue)
{
    // [rand.predef]: the 10000th output of a default-constructed
    // mt19937_64 (seed 5489).
    Rng rng(5489);
    for (int i = 1; i < 10000; ++i)
        rng.next();
    EXPECT_EQ(rng.next(), 9981545732273789042ULL);
}

/** A generator that always returns the same output. */
struct FixedOutput
{
    using result_type = std::uint64_t;
    static constexpr result_type min() { return 0; }
    static constexpr result_type max() { return ~result_type{0}; }
    result_type operator()() const { return x; }
    result_type x;
};

TEST(Rng, HelpersMatchStdDistributionsOnStdEngine)
{
    constexpr int draws = 100000;
    Rng rng(0xD157);
    std::mt19937_64 oracle(0xD157);
    Rng params(3);
    const std::vector<double> weights = {0.5, 0.0, 2.0, 1e-3, 7.25};
    for (int i = 0; i < draws; ++i) {
        const double mean = params.uniform(-10.0, 10.0);
        const double stddev = params.uniform(1e-3, 5.0);
        std::normal_distribution<double> normal(mean, stddev);
        ASSERT_EQ(rng.gaussian(mean, stddev), normal(oracle)) << i;
    }
    for (int i = 0; i < draws; ++i) {
        const double lo = params.uniform(-1e3, 1e3);
        const double hi = lo + params.uniform(1e-6, 1e3);
        std::uniform_real_distribution<double> uniform(lo, hi);
        ASSERT_EQ(rng.uniform(lo, hi), uniform(oracle)) << i;
    }
    constexpr std::int64_t lowest = std::numeric_limits<std::int64_t>::min();
    constexpr std::int64_t highest = std::numeric_limits<std::int64_t>::max();
    const std::pair<std::int64_t, std::int64_t> ranges[] = {
        {0, 7}, {0, 0}, {-5, 5}, {0, 255}, {-1000, 1000003},
        {0, std::int64_t{1} << 40}, {lowest, highest},
        {-(std::int64_t{1} << 62), highest}};
    for (int i = 0; i < draws; ++i) {
        const auto [lo, hi] = ranges[i % std::size(ranges)];
        std::uniform_int_distribution<std::int64_t> uniform(lo, hi);
        ASSERT_EQ(rng.uniformInt(lo, hi), uniform(oracle)) << i;
    }
    for (int i = 0; i < draws; ++i) {
        const double p = i % 4 == 0 ? params.uniform(0.0, 1.0)
                                    : params.uniform(0.0, 1e-2);
        std::bernoulli_distribution bernoulli(p);
        ASSERT_EQ(rng.chance(p), bernoulli(oracle)) << i;
    }
    for (int i = 0; i < draws; ++i) {
        std::discrete_distribution<std::size_t> discrete(weights.begin(),
                                                         weights.end());
        ASSERT_EQ(rng.weightedIndex(weights), discrete(oracle)) << i;
    }
    for (int i = 0; i < draws; ++i) {
        Rng child = rng.fork();
        std::mt19937_64 child_oracle(oracle());
        ASSERT_EQ(child.next(), child_oracle()) << i;
    }
    EXPECT_EQ(rng.next(), oracle());

    // Raw outputs the engine almost never gives: around 2^53, where
    // double(x) starts to round (2^53 + 1 is a tie, to even), around
    // the top bit GCC's conversion branches on, and at the top, where
    // 2^64 - 1024 is the first output that rounds to 2^64 and is
    // clamped below 1.
    constexpr std::uint64_t all_ones = ~std::uint64_t{0};
    constexpr std::uint64_t edges[] = {
        0, 1, (std::uint64_t{1} << 53) - 1, std::uint64_t{1} << 53,
        (std::uint64_t{1} << 53) + 1, (std::uint64_t{1} << 63) - 1,
        std::uint64_t{1} << 63, (std::uint64_t{1} << 63) + 1,
        all_ones - 1024, all_ones - 1023, all_ones};
    const std::pair<double, double> spans[] = {
        {0.0, 1.0}, {-1.0, 1.0}, {2.0, 3.0}, {-1e3, 1e3}, {5.0, 5.0}};
    for (const std::uint64_t x : edges) {
        FixedOutput output{x};
        const double canonical = Rng::canonical(x);
        ASSERT_EQ(canonical, (std::generate_canonical<double, 53>(output)))
            << "x " << x;
        ASSERT_LT(canonical, 1.0) << "x " << x;
        for (const auto &[lo, hi] : spans) {
            std::uniform_real_distribution<double> uniform(lo, hi);
            EXPECT_EQ(canonical * (hi - lo) + lo, uniform(output))
                << "x " << x << " [" << lo << ", " << hi << ")";
        }
        for (const double p : {0.0, 0x1p-11, 0.5, canonical,
                               std::nextafter(canonical, 2.0),
                               1.0 - 0x1p-53, 1.0}) {
            std::bernoulli_distribution bernoulli(p);
            const bool hit = bernoulli(output);
            EXPECT_EQ(canonical < p, hit) << "x " << x << " p " << p;
            const std::uint64_t cut = Rng::chanceThreshold(p);
            EXPECT_EQ(x < cut || cut == all_ones, hit)
                << "x " << x << " p " << p;
        }
    }
}

bool
bernoulliHits(double p, std::uint64_t x)
{
    std::bernoulli_distribution bernoulli(p);
    FixedOutput output{x};
    return bernoulli(output);
}

TEST(Rng, ChanceThresholdIsBernoulliCut)
{
    constexpr std::uint64_t all_ones =
        std::numeric_limits<std::uint64_t>::max();
    Rng probe(0x7E57);
    for (double p : {0.0, 1e-300, 1e-12, 1e-4, 5e-4, 1e-3, 2e-3, 5e-3,
                     1e-2, 0.5, 1.0 - 0x1p-53, 1.0}) {
        const std::uint64_t cut = Rng::chanceThreshold(p);
        if (cut > 0) {
            EXPECT_TRUE(bernoulliHits(p, cut - 1)) << "p " << p;
        }
        if (cut < all_ones) {
            EXPECT_FALSE(bernoulliHits(p, cut)) << "p " << p;
        } else {
            // All-ones: every output hits, all-ones included.
            EXPECT_TRUE(bernoulliHits(p, cut)) << "p " << p;
        }
        for (int i = 0; i < 1000; ++i) {
            const std::uint64_t x = probe.next();
            ASSERT_EQ(bernoulliHits(p, x), x < cut || cut == all_ones)
                << "p " << p << " x " << x;
        }
    }
    EXPECT_EQ(Rng::chanceThreshold(0.0), 0u);
    EXPECT_EQ(Rng::chanceThreshold(1e-300), 1u);
    EXPECT_EQ(Rng::chanceThreshold(1.0), all_ones);
}

TEST(Logging, WarnWritesOneLine)
{
    std::ostringstream captured;
    std::streambuf *const old = std::cerr.rdbuf(captured.rdbuf());
    warn("shown");
    std::cerr.rdbuf(old);
    EXPECT_EQ(captured.str(), "[sidewinder:warn] shown\n");
}

} // namespace
} // namespace sidewinder
