/**
 * @file
 * Static analysis of IL programs: admission-control cost modeling and
 * dataflow diagnostics.
 *
 * The paper's central safety claim (Section 2.2) is that shipping a
 * restricted dataflow IL lets the hub reject bad programs before they
 * execute, and Section 3.6's admission control assumes the platform
 * can decide *statically* whether a wake-up condition fits a given
 * microcontroller. The IL's legality rules live in one place, the
 * legality walk in analyze.cc, and lowering rides it: a plan builder
 * in the walk's per-node hook resolves, keys, merges and prices each
 * node as the walk registers it. il::validate() runs the walk and
 * throws its first Error; il::lower() runs it with the builder and
 * throws the same Error or returns the sealed plan; analyze() runs it
 * with the builder and goes further:
 *
 *  - it never throws on any program the parser accepts — every
 *    violation becomes a structured Diagnostic with a stable SWxxx
 *    code, severity, line:column span, message, and fix hint (the
 *    developer-friendliness gap declarative sensing frontends argue
 *    must be closed by tooling, not runtime failure);
 *  - it hands back the plan the walk built (AnalysisResult::plan),
 *    which the phone's push and the hub's admission install instead
 *    of lowering again, and a per-node static cost model read off
 *    that plan — abstract cycles/second from firing rates x
 *    per-algorithm cost, state-block + frame RAM bytes, and the
 *    worst-case wake-rate bound at OUT — the same numbers
 *    hub::admissionDiagnostics(), hub::selectMcuForPlan() and the hub
 *    runtime check against McuModel budgets for a provable
 *    admission-control verdict;
 *  - beyond legality it reports warnings the developer can act on:
 *    duplicate subtrees (the nodes the builder merges), identity
 *    stages, subsumed threshold chains, unconditional wake-ups,
 *    near-Nyquist cutoffs, and degenerate bands.
 *
 * The full diagnostic catalogue lives in docs/diagnostics.md; the
 * tools/swlint CLI renders analyses for humans and CI.
 */

#ifndef SIDEWINDER_IL_ANALYZE_H
#define SIDEWINDER_IL_ANALYZE_H

#include <cstddef>
#include <string>
#include <vector>

#include "il/algorithm_info.h"
#include "il/ast.h"
#include "il/lower.h"
#include "il/validate.h"

namespace sidewinder::il {

/** How bad a diagnostic is. */
enum class Severity {
    /** Informational; never affects exit status. */
    Note,
    /** Legal but suspicious; an error under --Werror. */
    Warning,
    /** The program would be rejected by validate() or admission. */
    Error,
};

/** Lower-case name of @p severity ("note", "warning", "error"). */
const char *severityName(Severity severity);

/** One structured finding about a program. */
struct Diagnostic
{
    /** Stable code, e.g. "SW010" (catalogued in docs/diagnostics.md). */
    std::string code;
    Severity severity = Severity::Error;
    /** 1-based statement span (never 0:0; see statementSpan()). */
    int line = 0;
    int column = 0;
    /** Offending node id; 0 for program-level findings. */
    NodeId node = 0;
    /** What is wrong. */
    std::string message;
    /** How to fix it; empty when no concrete fix applies. */
    std::string hint;
};

// Diagnostic codes (errors SW0xx, warnings SW1xx, notes SW2xx). Kept
// as named constants so emitters, tests, and docs cannot drift apart.
inline constexpr const char *SW001_EMPTY_PROGRAM = "SW001";
inline constexpr const char *SW002_UNKNOWN_CHANNEL = "SW002";
inline constexpr const char *SW003_UNKNOWN_ALGORITHM = "SW003";
inline constexpr const char *SW004_UNDEFINED_NODE = "SW004";
inline constexpr const char *SW005_BAD_NODE_ID = "SW005";
inline constexpr const char *SW006_INPUT_ARITY = "SW006";
inline constexpr const char *SW007_PARAM_ARITY = "SW007";
inline constexpr const char *SW008_INPUT_KIND = "SW008";
inline constexpr const char *SW009_BAD_PARAMETER = "SW009";
inline constexpr const char *SW010_FRAME_NOT_POW2 = "SW010";
inline constexpr const char *SW011_NYQUIST = "SW011";
inline constexpr const char *SW012_MISSING_FFT = "SW012";
inline constexpr const char *SW013_OUT_STATEMENT = "SW013";
inline constexpr const char *SW014_DEAD_NODE = "SW014";
inline constexpr const char *SW015_NO_INPUTS = "SW015";
inline constexpr const char *SW016_SCALAR_INTO_FRAME = "SW016";
inline constexpr const char *SW017_ADMISSION = "SW017";
inline constexpr const char *SW101_DUPLICATE_SUBTREE = "SW101";
inline constexpr const char *SW102_IDENTITY_STAGE = "SW102";
inline constexpr const char *SW103_SUBSUMED_THRESHOLD = "SW103";
inline constexpr const char *SW104_UNCONDITIONAL_WAKE = "SW104";
inline constexpr const char *SW105_NEAR_NYQUIST = "SW105";
inline constexpr const char *SW106_DEGENERATE_BAND = "SW106";
inline constexpr const char *SW201_MCU_ASSIGNMENT = "SW201";
inline constexpr const char *SW202_REPUSH_COST = "SW202";
inline constexpr const char *SW203_PLACEMENT = "SW203";
// SW3xx: value-range facts from the interval interpreter
// (il/analyze_range.h). Severity varies with context: SW301 is an
// error when Q15 execution is requested, a warning otherwise.
inline constexpr const char *SW301_Q15_SATURATION = "SW301";
inline constexpr const char *SW302_Q15_PRESCALE = "SW302";
inline constexpr const char *SW310_DEAD_WAKE = "SW310";
inline constexpr const char *SW311_ALWAYS_WAKE = "SW311";
inline constexpr const char *SW312_PROVEN_WAKE_RATE = "SW312";

/**
 * Version of the analyzer's rule set, bumped whenever a diagnostic's
 * meaning or the cost/range model changes. Rendered into swlint's
 * JSON so fleet tooling and golden corpora can detect stale verdicts.
 */
inline constexpr int kAnalyzerVersion = 2;

/** Everything analyze() learned about a program. */
struct AnalysisResult
{
    /** Findings in statement order (program-level findings last). */
    std::vector<Diagnostic> diagnostics;
    /** Cost model (best effort when the program has errors). */
    ProgramCost cost;
    /** Stream properties of every node that could be derived. */
    StreamMap streams;
    /**
     * The sealed plan the walk lowered, equal to il::lower() with the
     * same options, which the cost totals come from; empty and
     * unsealed when the program has errors. Its sealedHash is the
     * JSON report's planHash, which keys cached verdicts in fleet
     * tooling.
     */
    ExecutionPlan plan;

    /** True when no Error-severity diagnostic was produced. */
    bool ok() const;
    std::size_t errorCount() const;
    std::size_t warningCount() const;
};

/**
 * Statically analyze @p program against @p channels and lower it
 * with @p options in the same walk.
 *
 * Never throws and always terminates on any program the parser
 * accepts: every rule violation is reported as an Error diagnostic,
 * and analysis continues past errors so one run reports everything
 * it can. validate() and lower() run the same legality walk and throw
 * its first Error, so a program passes them exactly when this reports
 * no Error, and AnalysisResult::plan is then the plan lower() returns.
 * Admission paths install that plan rather than lowering again.
 */
AnalysisResult analyze(const Program &program,
                       const std::vector<ChannelInfo> &channels,
                       const LowerOptions &options = {});

/**
 * Per-invocation cost of an algorithm in abstract MCU cycle units
 * given its (first) input stream: cyclesPerUnit x frame size, with an
 * extra log2(N) factor for FFT-family entries. Shared with the hub
 * engine so the admission verdict and the runtime agree.
 */
double invokeCost(const AlgorithmInfo &info, const NodeStream &input);

/**
 * Static RAM footprint of one algorithm instance in bytes: state
 * block (windows, FFT plan tables, filter scratch) + result storage +
 * fixed per-node bookkeeping. Charged at the hub firmware's Q15
 * 16-bit fixed-point sample width, not the simulator's doubles. A
 * calibrated estimate, not an exact sizeof — monotone in frame sizes
 * so budget checks are meaningful.
 */
std::size_t nodeRamBytes(const AlgorithmInfo &info,
                         const std::vector<double> &params,
                         const NodeStream &input,
                         const NodeStream &output);

/**
 * Render @p result as human-readable, gcc-style text:
 *
 *     prog.il:3:1: error: [SW010] fft input frame size 100 ... (node 3)
 *         hint: use a power-of-two window size
 *
 * followed by a one-line cost summary. @p source_name labels the
 * program (file name or "<pipeline>").
 */
std::string renderText(const AnalysisResult &result,
                       const std::string &source_name);

/** Render @p result as a single JSON object (diagnostics + cost). */
std::string renderJson(const AnalysisResult &result,
                       const std::string &source_name);

} // namespace sidewinder::il

#endif // SIDEWINDER_IL_ANALYZE_H
