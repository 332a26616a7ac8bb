/**
 * @file
 * Goertzel single-bin spectral estimation.
 *
 * The classic low-power alternative to a full FFT when only a few
 * frequencies matter: O(N) per probed frequency with three multiplies
 * per sample, no buffering of complex spectra, and no power-of-two
 * requirement — exactly the kind of algorithm Section 3.8 of the
 * paper anticipates adding when "a highly specialized algorithm may
 * provide optimal performance" for a class of applications. It lets a
 * pitched-sound wake-up condition fit the MSP430's real-time budget
 * where the FFT-based version needs the LM4F120.
 */

#ifndef SIDEWINDER_DSP_GOERTZEL_H
#define SIDEWINDER_DSP_GOERTZEL_H

#include <cstddef>
#include <vector>

namespace sidewinder::dsp {

/**
 * Magnitude of the @p target_hz component of @p frame sampled at
 * @p sample_rate_hz, comparable to the corresponding bin of the
 * frame's magnitude spectrum (same scaling, |X(k)|).
 *
 * @throws ConfigError on an empty frame, a non-positive rate, or a
 *     target at/above Nyquist.
 */
double goertzelMagnitude(const std::vector<double> &frame,
                         double target_hz, double sample_rate_hz);

/**
 * Relative strength of the probed tone: goertzel magnitude divided by
 * the frame's total RMS-equivalent magnitude (||x|| * sqrt(N) / 2
 * normalization, so a pure tone at the target scores ~1 and broadband
 * noise scores near 0).
 */
double goertzelRelative(const std::vector<double> &frame,
                        double target_hz, double sample_rate_hz);

} // namespace sidewinder::dsp

#endif // SIDEWINDER_DSP_GOERTZEL_H
