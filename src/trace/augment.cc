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

Trace
applyGain(const Trace &trace, double gain)
{
    Trace out = trace;
    out.name = trace.name + "+gain";
    for (auto &channel : out.channels)
        for (auto &value : channel)
            value *= gain;
    return out;
}

Trace
applyOffset(const Trace &trace, const std::vector<double> &offsets)
{
    if (offsets.size() != trace.channels.size())
        throw ConfigError("need one offset per channel");
    Trace out = trace;
    out.name = trace.name + "+offset";
    for (std::size_t ch = 0; ch < out.channels.size(); ++ch)
        for (auto &value : out.channels[ch])
            value += offsets[ch];
    return out;
}

Trace
decimate(const Trace &trace, std::size_t factor)
{
    if (factor == 0)
        throw ConfigError("decimation factor must be positive");
    Trace out;
    out.name = trace.name + "/" + std::to_string(factor);
    out.sampleRateHz = trace.sampleRateHz / static_cast<double>(factor);
    out.channelNames = trace.channelNames;
    out.events = trace.events;
    out.channels.resize(trace.channels.size());
    for (std::size_t ch = 0; ch < trace.channels.size(); ++ch) {
        out.channels[ch].reserve(trace.channels[ch].size() / factor +
                                 1);
        for (std::size_t i = 0; i < trace.channels[ch].size();
             i += factor)
            out.channels[ch].push_back(trace.channels[ch][i]);
    }
    out.checkInvariants();
    return out;
}

} // namespace sidewinder::trace
