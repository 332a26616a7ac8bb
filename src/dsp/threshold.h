/**
 * @file
 * Admission-control algorithms: configurable high and low thresholds
 * (Section 3.6 of the paper). A threshold "will only produce a result
 * when the threshold is met" (Section 3.5), which is what makes it the
 * natural terminal stage of a wake-up condition.
 */

#ifndef SIDEWINDER_DSP_THRESHOLD_H
#define SIDEWINDER_DSP_THRESHOLD_H

namespace sidewinder::dsp {

/** Comparison mode for an admission-control stage. */
enum class ThresholdKind {
    /** Pass values >= limit (the paper's MinThreshold). */
    Min,
    /** Pass values <= limit. */
    Max,
    /** Pass values inside [low, high]. */
    Band,
    /** Pass values outside [low, high]. */
    OutsideBand,
};

/**
 * Stateless admission control: forwards the input value only when the
 * configured predicate holds.
 */
class Threshold
{
  public:
    /** Min/Max threshold against a single @p limit. */
    Threshold(ThresholdKind kind, double limit);

    /** Band / OutsideBand threshold against [low, high]. */
    Threshold(ThresholdKind kind, double low, double high);

    /** True when @p value satisfies the predicate (inline: every
        admission stage of the hub's block loop runs it per wave). */
    bool
    admits(double value) const
    {
        switch (mode) {
          case ThresholdKind::Min:
            return value >= low;
          case ThresholdKind::Max:
            return value <= high;
          case ThresholdKind::Band:
            return value >= low && value <= high;
          case ThresholdKind::OutsideBand:
            return value < low || value > high;
        }
        return false;
    }

    /** Configured comparison mode. */
    ThresholdKind kind() const { return mode; }

    /** Lower bound (or the single limit for Min/Max kinds). */
    double lowLimit() const { return low; }

    /** Upper bound (equals lowLimit() for Min/Max kinds). */
    double highLimit() const { return high; }

  private:
    ThresholdKind mode;
    double low;
    double high;
};

} // namespace sidewinder::dsp

#endif // SIDEWINDER_DSP_THRESHOLD_H
