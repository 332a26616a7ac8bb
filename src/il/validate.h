/**
 * @file
 * The IL's legality verdict and the stream types it derives.
 *
 * The rules live in one place, the analyzer's legality walk
 * (il/analyze.cc); validate() is its verdict, and il::lower() and
 * il::analyze() build the plan in that same walk. The phone walks a
 * wake-up condition once when it analyzes and lowers it for shipping
 * (push() surfaces a bad pipeline as ParseError), and the hub walks
 * it once more in admission before instantiating kernels, so a
 * corrupted or hostile program can never execute — the security
 * advantage Section 2.2 of the paper claims over fully programmable
 * offloading.
 */

#ifndef SIDEWINDER_IL_VALIDATE_H
#define SIDEWINDER_IL_VALIDATE_H

#include <map>
#include <string>
#include <vector>

#include "il/algorithm_info.h"
#include "il/ast.h"

namespace sidewinder::il {

/** Description of a sensor channel the hub can source data from. */
struct ChannelInfo
{
    /** IL-visible name, e.g. "ACC_X". */
    std::string name;
    /** Delivery rate of raw samples in Hz. */
    double sampleRateHz;

    bool operator==(const ChannelInfo &) const = default;
};

/** Derived properties of the stream produced by one node. */
struct NodeStream
{
    /** Shape of the produced values. */
    ValueKind kind = ValueKind::Scalar;
    /** Nominal firings per second (upper bound for conditionals). */
    double fireRateHz = 0.0;
    /** Elements per frame; 0 for scalar streams. */
    std::size_t frameSize = 0;
    /**
     * Sample rate of the underlying time-domain signal feeding the
     * most recent window stage; needed to map FFT bins to Hz.
     */
    double baseRateHz = 0.0;
    /** Size of the most recent FFT; 0 if none upstream. */
    std::size_t fftSize = 0;
};

/** Stream analysis result: per-node stream properties. */
using StreamMap = std::map<NodeId, NodeStream>;

/**
 * The analyzer's verdict on @p program against the standardized
 * algorithm table and @p channels: runs the legality walk analyze()
 * runs (each rule below is an SW0xx code in docs/diagnostics.md) and
 * returns the per-node stream properties it derives.
 *
 * Enforced rules:
 *  - statements define nodes before use, with unique positive ids;
 *  - all referenced channels exist and all algorithms are standard;
 *  - input/parameter arity and value kinds match the algorithm table;
 *  - algorithm-specific parameter constraints hold (window sizes
 *    positive, FFT frames power-of-two, cutoffs below Nyquist, ...);
 *  - every parameter is finite, and every count (window sizes and
 *    hops, run lengths, refractories) is at most 2^32 - 1;
 *  - exactly one statement targets OUT, fed by exactly one node;
 *  - every node is consumed ("at the end of the pipeline, there must
 *    be only one branch remaining", Section 3.2).
 *
 * @return per-node stream properties for downstream consumers.
 * @throws ParseError carrying the walk's first Error diagnostic:
 *     "IL validation error at L:C: [SWxxx] message (node N)", the
 *     node part left out for program-level findings.
 */
StreamMap validate(const Program &program,
                   const std::vector<ChannelInfo> &channels);

} // namespace sidewinder::il

#endif // SIDEWINDER_IL_VALIDATE_H
