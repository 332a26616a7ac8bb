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

#include <array>
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

/** A seeded pseudo-random source with the sampling helpers we need. */
class Rng
{
  public:
    /** Construct with an explicit seed; equal seeds yield equal streams. */
    explicit Rng(std::uint64_t seed) : engine(seed) {}

    /** The engine's next raw 64-bit output. */
    std::uint64_t next() { return engine(); }

    /** Uniform double in [lo, hi). */
    double
    uniform(double lo, double hi)
    {
        std::uniform_real_distribution<double> dist(lo, hi);
        return dist(engine);
    }

    /** Uniform integer in [lo, hi] inclusive. */
    std::int64_t
    uniformInt(std::int64_t lo, std::int64_t hi)
    {
        std::uniform_int_distribution<std::int64_t> dist(lo, hi);
        return dist(engine);
    }

    /** Normal deviate with the given mean and standard deviation. */
    double
    gaussian(double mean, double stddev)
    {
        std::normal_distribution<double> dist(mean, stddev);
        return dist(engine);
    }

    /** Bernoulli trial that succeeds with probability @p p. */
    bool
    chance(double p)
    {
        std::bernoulli_distribution dist(p);
        return dist(engine);
    }

    /**
     * The smallest raw output for which chance(@p p) fails: chance(p)
     * consumes one output x and succeeds exactly when x is below it.
     * 0 when p is 0. All-ones when every output succeeds (p = 1);
     * that is the one case where x < threshold misses a success, at
     * x = all-ones. Found by bisecting the distribution's own
     * predicate, which rises with x, so it is exact by construction.
     */
    static std::uint64_t
    chanceThreshold(double p)
    {
        // Same range as the engine, so the distribution scales alike.
        struct Fixed
        {
            using result_type = std::uint64_t;
            static constexpr result_type min() { return 0; }
            static constexpr result_type max() { return ~result_type{0}; }
            result_type operator()() const { return x; }
            result_type x;
        };
        std::bernoulli_distribution dist(p);
        auto succeeds = [&dist](std::uint64_t x) {
            Fixed output{x};
            return dist(output);
        };
        std::uint64_t lo = 0;
        std::uint64_t hi = Fixed::max();
        if (succeeds(hi))
            return hi;
        // Every output below lo succeeds; hi fails.
        while (lo < hi) {
            const std::uint64_t mid = lo + (hi - lo) / 2;
            if (succeeds(mid))
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
    detail::MersenneTwister64 engine;
};

} // namespace sidewinder

#endif // SIDEWINDER_SUPPORT_RNG_H
