/**
 * @file
 * Radix-2 Fast Fourier Transform and inverse.
 *
 * These are the "Transform" algorithms of Section 3.6 of the paper. The
 * implementation is an iterative in-place Cooley-Tukey FFT, which is
 * what a Cortex-M4-class microcontroller (the TI LM4F120 of the
 * prototype) would realistically run.
 *
 * fftReal() executes through a cached FftPlan (see fft_plan.h):
 * precomputed bit-reversal and twiddle tables, and a half-size packed
 * transform for real input. The original textbook implementation is
 * kept as naiveFft()/naiveIfft() — a reference the property tests and
 * benchmarks compare the planned path against.
 */

#ifndef SIDEWINDER_DSP_FFT_H
#define SIDEWINDER_DSP_FFT_H

#include <complex>
#include <cstddef>
#include <vector>

namespace sidewinder::dsp {

/** Complex sample type used by the transforms. */
using Complex = std::complex<double>;

/** True iff @p n is a positive power of two. */
bool isPowerOfTwo(std::size_t n);

/**
 * Reference forward FFT: the per-call twiddle-recurrence
 * implementation the planned path replaced. Kept for equivalence
 * tests and planned-vs-naive benchmarks; do not use on hot paths.
 */
void naiveFft(std::vector<Complex> &data);

/** Reference inverse FFT (see naiveFft()). */
void naiveIfft(std::vector<Complex> &data);

/** Forward FFT of a real signal (zero imaginary parts). */
std::vector<Complex> fftReal(const std::vector<double> &samples);

/**
 * out[i] = |bins[i]| for i < @p n, bit for bit std::abs(bins[i]) (glibc's
 * hypot), two bins at a time and without hypot's branches. Every
 * magnitude loop runs through this. Defined in fft_plan.cc beside the
 * two-lane type the transforms use.
 */
void magnitudesInto(const Complex *bins, std::size_t n, double *out);

/**
 * Frequency in Hz corresponding to @p bin of an @p fft_size transform
 * at @p sample_rate_hz.
 */
double binFrequencyHz(std::size_t bin, std::size_t fft_size,
                      double sample_rate_hz);

} // namespace sidewinder::dsp

#endif // SIDEWINDER_DSP_FFT_H
