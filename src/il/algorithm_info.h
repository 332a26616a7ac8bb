/**
 * @file
 * Metadata for the platform's standardized algorithm set.
 *
 * Section 3.8 of the paper argues the set of hub algorithms "should be
 * standardized by the platform". This table is that standard: it is
 * consulted by the phone-side validator (so bad pipelines are rejected
 * before being shipped) and by the hub-side registry (which provides a
 * kernel for every entry).
 */

#ifndef SIDEWINDER_IL_ALGORITHM_INFO_H
#define SIDEWINDER_IL_ALGORITHM_INFO_H

#include <cstddef>
#include <string>
#include <vector>

namespace sidewinder::il {

/** Shape of values flowing on an edge of the dataflow graph. */
enum class ValueKind {
    /** A single number per firing. */
    Scalar,
    /** A frame of real samples. */
    Frame,
    /** A frame of complex bins (FFT output). */
    ComplexFrame,
};

/** Static description of one standardized algorithm. */
struct AlgorithmInfo
{
    /** IL name, e.g. "movingAvg". */
    std::string name;
    /** Minimum number of data inputs. */
    std::size_t minInputs;
    /** Maximum number of data inputs. */
    std::size_t maxInputs;
    /** Minimum number of numeric parameters. */
    std::size_t minParams;
    /** Maximum number of numeric parameters. */
    std::size_t maxParams;
    /** Required kind of every input edge. */
    ValueKind inputKind;
    /** Kind of the produced edge. */
    ValueKind outputKind;
    /**
     * Relative per-invocation cost in abstract MCU cycles for one unit
     * of input (one sample for scalar algorithms, one frame element for
     * frame algorithms). FFT-family entries carry an extra log2 factor
     * applied by the capability model.
     */
    double cyclesPerUnit;
    /** True for FFT-family algorithms (cost scales with N log2 N). */
    bool fftFamily;
};

/** The complete standardized algorithm table. */
const std::vector<AlgorithmInfo> &standardAlgorithms();

/**
 * Look up one algorithm by IL name.
 * @return its row of standardAlgorithms(), or nullptr when unknown.
 */
const AlgorithmInfo *findAlgorithm(const std::string &name);

} // namespace sidewinder::il

#endif // SIDEWINDER_IL_ALGORITHM_INFO_H
