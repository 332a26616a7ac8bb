#include "dsp/threshold.h"

#include "support/error.h"

namespace sidewinder::dsp {

Threshold::Threshold(ThresholdKind kind, double limit)
    : mode(kind), low(limit), high(limit)
{
    if (kind != ThresholdKind::Min && kind != ThresholdKind::Max)
        throw ConfigError(
            "single-limit Threshold requires Min or Max kind");
}

Threshold::Threshold(ThresholdKind kind, double low, double high)
    : mode(kind), low(low), high(high)
{
    if (kind != ThresholdKind::Band && kind != ThresholdKind::OutsideBand)
        throw ConfigError(
            "two-limit Threshold requires Band or OutsideBand kind");
    if (low > high)
        throw ConfigError("Threshold band is inverted");
}

} // namespace sidewinder::dsp
