/**
 * @file
 * Trace augmentation: noise injection. Used by the robustness
 * experiments to ask how far the wake-up conditions' 100%-recall
 * calibration survives sensor imperfections the paper's single
 * prototype could not vary.
 */

#ifndef SIDEWINDER_TRACE_AUGMENT_H
#define SIDEWINDER_TRACE_AUGMENT_H

#include <cstdint>

#include "trace/types.h"

namespace sidewinder::trace {

/**
 * Additive white Gaussian noise on every channel.
 *
 * @param sigma Noise standard deviation, in signal units.
 * @param seed Deterministic noise stream seed.
 */
Trace addGaussianNoise(const Trace &trace, double sigma,
                       std::uint64_t seed);

} // namespace sidewinder::trace

#endif // SIDEWINDER_TRACE_AUGMENT_H
