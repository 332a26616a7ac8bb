#include "dsp/peaks.h"

#include "support/error.h"

namespace sidewinder::dsp {

PeakDetector::PeakDetector(PeakPolarity polarity, double low, double high,
                           std::size_t refractory)
    : polarity(polarity), low(low), high(high), refractory(refractory)
{
    if (low > high)
        throw ConfigError("PeakDetector band is inverted");
}

void
PeakDetector::reset()
{
    havePrev = false;
    havePrev2 = false;
    sinceLastPeak = 0;
    peakEmitted = false;
}

} // namespace sidewinder::dsp
