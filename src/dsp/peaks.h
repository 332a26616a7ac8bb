/**
 * @file
 * Streaming local-extremum detection.
 *
 * The paper's step detector "searches for local maxima in the filtered
 * x-axis acceleration" within a band, and the headbutt detector
 * "searches for local minima" within a band (Section 3.7.1). This
 * module provides a streaming detector for both polarities.
 */

#ifndef SIDEWINDER_DSP_PEAKS_H
#define SIDEWINDER_DSP_PEAKS_H

#include <cstddef>
#include <optional>

namespace sidewinder::dsp {

/** Which extremum polarity to detect. */
enum class PeakPolarity { Maxima, Minima };

/**
 * Detects local extrema whose value lies within [low, high].
 *
 * A local maximum is a sample strictly greater than its predecessor
 * where the following sample is not greater (and symmetrically for
 * minima). Consecutive detections are separated by at least
 * @p refractory samples to avoid double-counting one physical event —
 * the same debouncing the paper's step detector needs to count each
 * step once.
 */
class PeakDetector
{
  public:
    /**
     * @param polarity Maxima or Minima.
     * @param low Lower bound of the acceptance band.
     * @param high Upper bound of the acceptance band.
     * @param refractory Minimum samples between reported peaks.
     */
    PeakDetector(PeakPolarity polarity, double low, double high,
                 std::size_t refractory = 0);

    /**
     * Feed one sample.
     * @return the peak value when the previous sample is confirmed as a
     *     peak inside the band, otherwise nullopt.
     */
    std::optional<double>
    push(double sample)
    {
        double peak = 0.0;
        if (!step(sample, peak))
            return std::nullopt;
        return peak;
    }

    /**
     * push() without the optional: writes the confirmed peak into
     * @p peak and returns true, or returns false. Defined inline, like
     * MovingAverage::push, for the hub's block loop; the detector is
     * trivially copyable, so that loop steps a register-held copy.
     */
    bool
    step(double sample, double &peak)
    {
        // Fields are read once and written once, @p peak last: a store
        // through @p peak may alias a field.
        const double last = prev;
        const double before = prev2;
        const std::size_t since = sinceLastPeak + 1;

        bool found = false;
        if (havePrev && havePrev2) {
            const bool rising = last > before;
            const bool falling = sample <= last;
            const bool dipping = last < before;
            const bool recovering = sample >= last;

            const bool is_peak = polarity == PeakPolarity::Maxima
                                     ? (rising && falling)
                                     : (dipping && recovering);
            const bool in_band = last >= low && last <= high;
            const bool debounced = !peakEmitted || since > refractory;
            found = is_peak && in_band && debounced;
        }

        prev2 = last;
        havePrev2 = havePrev;
        prev = sample;
        havePrev = true;
        if (!found) {
            sinceLastPeak = since;
            return false;
        }
        peakEmitted = true;
        sinceLastPeak = 0;
        peak = last;
        return true;
    }

    /** Forget history; the next two samples rebuild context. */
    void reset();

  private:
    PeakPolarity polarity;
    double low;
    double high;
    std::size_t refractory;

    bool havePrev = false;
    bool havePrev2 = false;
    double prev = 0.0;
    double prev2 = 0.0;
    std::size_t sinceLastPeak = 0;
    bool peakEmitted = false;
};

} // namespace sidewinder::dsp

#endif // SIDEWINDER_DSP_PEAKS_H
