#include "trace/augment.h"

#include "support/error.h"
#include "support/rng.h"

namespace sidewinder::trace {

Trace
addGaussianNoise(const Trace &trace, double sigma, std::uint64_t seed)
{
    if (sigma < 0.0)
        throw ConfigError("noise sigma must be non-negative");
    Trace out = trace;
    out.name = trace.name + "+noise";
    // Zero noise is the identity; a normal_distribution with stddev 0
    // is outside its domain.
    if (sigma == 0.0)
        return out;
    Rng rng(seed);
    for (auto &channel : out.channels)
        for (auto &value : channel)
            value += rng.gaussian(0.0, sigma);
    return out;
}

} // namespace sidewinder::trace
