/**
 * @file
 * Deterministic random number generation for trace synthesis.
 *
 * All trace generators draw from a Rng seeded explicitly so that every
 * experiment in the repository is exactly reproducible. The paper's
 * robot runs randomize the order of actions per run (Section 4.1); we
 * reproduce that with per-run seeds.
 */

#ifndef SIDEWINDER_SUPPORT_RNG_H
#define SIDEWINDER_SUPPORT_RNG_H

#include <algorithm>
#include <array>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <random>
#include <vector>

namespace sidewinder {

namespace detail {

/**
 * MT19937-64 whose outputs equal the standard library's `mt19937_64`
 * output for output: the same seeding recurrence, refill and
 * tempering, and the same min() and max(), so every standard
 * distribution draws the same values from it. The one difference is
 * the refill, which selects the twist constant with a mask,
 * -(y & 1) & a, where libstdc++ branches on the low bit of each state
 * word and so mispredicts about every other word.
 */
class MersenneTwister64
{
  public:
    using result_type = std::uint64_t;

    static constexpr result_type min() { return 0; }
    static constexpr result_type max() { return ~result_type{0}; }

    explicit MersenneTwister64(result_type seed)
    {
        state[0] = seed;
        for (std::size_t i = 1; i < n; ++i) {
            const result_type x = state[i - 1];
            state[i] = (x ^ (x >> 62)) * 6364136223846793005ULL + i;
        }
    }

    result_type
    operator()()
    {
        if (index == n)
            refill();
        result_type z = state[index++];
        z ^= (z >> 29) & 0x5555555555555555ULL;
        z ^= (z << 17) & 0x71D67FFFEDA60000ULL;
        z ^= (z << 37) & 0xFFF7EEE000000000ULL;
        return z ^ (z >> 43);
    }

  private:
    static constexpr std::size_t n = 312;
    static constexpr std::size_t m = 156;
    /** The top 64 - r bits of a word, r = 31. */
    static constexpr result_type upperMask = ~result_type{0} << 31;

    /** Next value of the word whose successor is @p next, given the
        word m places on, @p far. */
    static result_type
    twist(result_type word, result_type next, result_type far)
    {
        const result_type y = (word & upperMask) | (next & ~upperMask);
        return far ^ (y >> 1) ^ (-(y & 1) & 0xB5026F5AA96619E9ULL);
    }

    void
    refill()
    {
        std::size_t k = 0;
        for (; k < n - m; ++k)
            state[k] = twist(state[k], state[k + 1], state[k + m]);
        for (; k < n - 1; ++k)
            state[k] = twist(state[k], state[k + 1], state[k + m - n]);
        state[n - 1] = twist(state[n - 1], state[0], state[m - 1]);
        index = 0;
    }

    std::array<result_type, n> state;
    std::size_t index = n;
};

} // namespace detail

/**
 * A seeded pseudo-random source with the sampling helpers we need.
 *
 * uniform(), gaussian() and chance() return exactly what a fresh
 * libstdc++ uniform_real_distribution, normal_distribution and
 * bernoulli_distribution return on the same engine, consuming the
 * same outputs, but are written out over canonical() instead of
 * building a distribution per call. Each constructs the
 * distribution's param_type, which checks the parameters where
 * libstdc++'s assertions are on and compiles to nothing elsewhere.
 */
class Rng
{
  public:
    /** Construct with an explicit seed; equal seeds yield equal streams. */
    explicit Rng(std::uint64_t seed) : engine(seed) {}

    /** The engine's next raw 64-bit output. */
    std::uint64_t next() { return engine(); }

    /**
     * The double in [0, 1) that std::generate_canonical<double, 53>
     * makes of the raw output @p x: double(x) · 2^-64, with a result
     * of 1 clamped to 1 - 2^-53. The two 32-bit halves convert to
     * doubles exactly and their sum rounds once, to the same
     * correctly rounded double(x) the library computes. GCC converts
     * a 64-bit unsigned integer with a branch on its top bit, a coin
     * flip on this engine's output; the halves convert as signed
     * values, with no branch.
     */
    static double
    canonical(std::uint64_t x)
    {
        const double high = static_cast<double>(x >> 32) * 0x1p32;
        const double low = static_cast<double>(x & 0xFFFFFFFFu);
        return std::min((high + low) * 0x1p-64, 0x1.fffffffffffffp-1);
    }

    /** Uniform double in [lo, hi). */
    double
    uniform(double lo, double hi)
    {
        const std::uniform_real_distribution<double>::param_type
            range(lo, hi);
        return canonical(engine()) * (range.b() - range.a()) + range.a();
    }

    /** Uniform integer in [lo, hi] inclusive. */
    std::int64_t
    uniformInt(std::int64_t lo, std::int64_t hi)
    {
        std::uniform_int_distribution<std::int64_t> dist(lo, hi);
        return dist(engine);
    }

    /**
     * Normal deviate with the given mean and standard deviation, by
     * libstdc++'s polar method: of the accepted pair (x, y), with
     * m = sqrt(-2·log(r2)/r2), it returns y·m and keeps x·m for its
     * next call, which a fresh distribution never makes, so x·m is
     * dropped here.
     */
    double
    gaussian(double mean, double stddev)
    {
        const std::normal_distribution<double>::param_type shape(mean,
                                                                 stddev);
        double y = 0.0;
        double r2 = 0.0;
        do {
            const double x = 2.0 * canonical(engine()) - 1.0;
            y = 2.0 * canonical(engine()) - 1.0;
            r2 = x * x + y * y;
        } while (r2 > 1.0 || r2 == 0.0);
        return y * std::sqrt(-2.0 * std::log(r2) / r2) * shape.stddev() +
               shape.mean();
    }

    /** Bernoulli trial that succeeds with probability @p p. */
    bool
    chance(double p)
    {
        return succeeds(engine(), p);
    }

    /**
     * The smallest raw output for which chance(@p p) fails: chance(p)
     * consumes one output x and succeeds exactly when x is below it.
     * 0 when p is 0. All-ones when every output succeeds (p = 1);
     * that is the one case where x < threshold misses a success, at
     * x = all-ones. Found by bisecting chance()'s own predicate, which
     * rises with x, so it is exact by construction.
     */
    static std::uint64_t
    chanceThreshold(double p)
    {
        std::uint64_t lo = 0;
        std::uint64_t hi = ~std::uint64_t{0};
        if (succeeds(hi, p))
            return hi;
        // Every output below lo succeeds; hi fails.
        while (lo < hi) {
            const std::uint64_t mid = lo + (hi - lo) / 2;
            if (succeeds(mid, p))
                lo = mid + 1;
            else
                hi = mid;
        }
        return lo;
    }

    /**
     * Draw an index according to @p weights (need not be normalized).
     * @return index in [0, weights.size()).
     */
    std::size_t
    weightedIndex(const std::vector<double> &weights)
    {
        std::discrete_distribution<std::size_t> dist(weights.begin(),
                                                     weights.end());
        return dist(engine);
    }

    /** Derive an independent child generator (for per-run streams). */
    Rng
    fork()
    {
        return Rng(engine());
    }

  private:
    /** Whether chance(@p p) succeeds on the raw output @p x. */
    static bool
    succeeds(std::uint64_t x, double p)
    {
        const std::bernoulli_distribution::param_type odds(p);
        return canonical(x) < odds.p();
    }

    detail::MersenneTwister64 engine;
};

} // namespace sidewinder

#endif // SIDEWINDER_SUPPORT_RNG_H
