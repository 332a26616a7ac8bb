#include "il/analyze.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <set>
#include <sstream>
#include <unordered_map>

#include "support/error.h"

namespace sidewinder::il {

namespace {

/** Largest count a kernel takes: 2^32 - 1 fits any std::size_t. */
constexpr double kMaxCount = 4294967295.0;

bool
isPositiveInteger(double v)
{
    return v >= 1.0 && v == std::floor(v);
}

/**
 * True when parameter @p index of @p algorithm is a count, which the
 * kernels and the RAM model cast to std::size_t: a movingAvg length,
 * a window size or hop, a consecutive count, a peak refractory.
 */
bool
isCountParameter(const std::string &algorithm, std::size_t index)
{
    if (algorithm == "movingAvg" || algorithm == "consecutive")
        return index == 0;
    if (algorithm == "window")
        return index == 0 || index == 2;
    return (algorithm == "localMaxima" || algorithm == "localMinima") &&
           index == 2;
}

bool
isPowerOfTwoValue(std::size_t n)
{
    return n != 0 && (n & (n - 1)) == 0;
}

const char *
kindName(ValueKind kind)
{
    switch (kind) {
      case ValueKind::Scalar:
        return "scalar";
      case ValueKind::Frame:
        return "frame";
      case ValueKind::ComplexFrame:
        return "complex-frame";
    }
    return "?";
}

/**
 * Algorithms with admission-control semantics: they bound the wake
 * rate at OUT from above (Section 3.2's conditionals). A path to OUT
 * without any of these wakes the main CPU on every upstream emission.
 */
bool
isConditionalAlgorithm(const std::string &name)
{
    static const std::set<std::string> conditionals = {
        "minThreshold",  "maxThreshold", "bandThreshold",
        "outsideBandThreshold", "localMaxima", "localMinima",
        "consecutive",
    };
    return conditionals.count(name) != 0;
}

/** Compact human rendering of a double (no trailing zeros). */
std::string
formatNumber(double v)
{
    char buf[40];
    std::snprintf(buf, sizeof buf, "%g", v);
    return buf;
}

/** Full-precision rendering for JSON output. */
std::string
formatJsonNumber(double v)
{
    if (!std::isfinite(v))
        return "0";
    char buf[40];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    return buf;
}

/** Everything the legality walk tracks about one defined node. */
struct NodeRecord
{
    const Statement *stmt = nullptr;
    SourceSpan span;
    NodeStream stream;
    /** False when an error left the stream a placeholder. */
    bool streamKnown = false;
};

/** What the legality walk learned besides its diagnostics. */
struct Walk
{
    std::map<NodeId, NodeRecord> nodes;
    /** Stream of every node whose algorithm is known. */
    StreamMap streams;
    bool seenOut = false;
    /** Node feeding OUT; 0 when OUT is missing or malformed. */
    NodeId outFeeder = 0;
    SourceSpan outSpan{0, 0};
};

/** Appends diagnostics with shared bookkeeping. */
class Emitter
{
  public:
    explicit Emitter(std::vector<Diagnostic> &sink) : sink(sink) {}

    void
    emit(const char *code, Severity severity, SourceSpan span,
         NodeId node, std::string message, std::string hint = {})
    {
        Diagnostic d;
        d.code = code;
        d.severity = severity;
        d.line = span.line;
        d.column = span.column;
        d.node = node;
        d.message = std::move(message);
        d.hint = std::move(hint);
        sink.push_back(std::move(d));
    }

  private:
    std::vector<Diagnostic> &sink;
};

/**
 * Check the algorithm-specific parameter rules of @p stmt given the
 * streams on its inputs, and derive the stream it produces. Emits
 * diagnostics instead of throwing, clamps bad parameters to keep the
 * derived stream usable, and guards every parameter access (arity
 * violations have already been reported, not enforced).
 */
NodeStream
deriveStreamChecked(const Statement &stmt, const AlgorithmInfo &info,
                    const std::vector<NodeStream> &inputs,
                    SourceSpan span, Emitter &diags)
{
    NodeStream out;
    out.kind = info.outputKind;

    double rate = inputs.front().fireRateHz;
    for (const auto &in : inputs)
        rate = std::min(rate, in.fireRateHz);
    out.fireRateHz = rate;
    out.frameSize = inputs.front().frameSize;
    out.baseRateHz = inputs.front().baseRateHz;
    out.fftSize = inputs.front().fftSize;

    const auto &p = stmt.params;
    const std::string &name = info.name;
    const NodeId id = stmt.id;

    auto param = [&](std::size_t i, double fallback) {
        return i < p.size() ? p[i] : fallback;
    };

    // The IL text cannot spell a non-finite number, and a count past
    // kMaxCount has no std::size_t the kernels could hold it in.
    for (std::size_t i = 0; i < p.size(); ++i)
        if (!std::isfinite(p[i]) ||
            (p[i] > kMaxCount && isCountParameter(name, i)))
            diags.emit(SW009_BAD_PARAMETER, Severity::Error, span, id,
                       name + " parameter " + std::to_string(i + 1) +
                           " is out of range, got " + formatNumber(p[i]),
                       "parameters must be finite, and counts at most "
                       "4294967295");

    if (name == "movingAvg") {
        if (!p.empty() && !isPositiveInteger(p[0]))
            diags.emit(SW009_BAD_PARAMETER, Severity::Error, span, id,
                       "movingAvg window must be a positive integer, "
                       "got " + formatNumber(p[0]),
                       "use an integer window length >= 1");
        else if (!p.empty() && p[0] == 1.0)
            diags.emit(SW102_IDENTITY_STAGE, Severity::Warning, span,
                       id,
                       "movingAvg over a window of 1 is an identity "
                       "stage",
                       "remove the stage or enlarge the window");
    } else if (name == "expMovingAvg") {
        if (!p.empty() && (!(p[0] > 0.0) || p[0] > 1.0))
            diags.emit(SW009_BAD_PARAMETER, Severity::Error, span, id,
                       "expMovingAvg alpha must be in (0,1], got " +
                           formatNumber(p[0]),
                       "pick an alpha such as 0.1");
        else if (!p.empty() && p[0] == 1.0)
            diags.emit(SW102_IDENTITY_STAGE, Severity::Warning, span,
                       id,
                       "expMovingAvg with alpha=1 performs no "
                       "smoothing",
                       "remove the stage or lower alpha");
    } else if (name == "window") {
        double size_param = param(0, 1.0);
        if (!isPositiveInteger(size_param))
            diags.emit(SW009_BAD_PARAMETER, Severity::Error, span, id,
                       "window size must be a positive integer, got " +
                           formatNumber(size_param),
                       "use an integer window length >= 1");
        // Clamped, so the derived stream stays usable and the cast
        // below stays in range.
        size_param =
            std::min(std::max(1.0, std::floor(size_param)), kMaxCount);
        const double hamming = param(1, 0.0);
        if (hamming != 0.0 && hamming != 1.0)
            diags.emit(SW009_BAD_PARAMETER, Severity::Error, span, id,
                       "window hamming flag must be 0 or 1, got " +
                           formatNumber(hamming));
        const auto size = static_cast<std::size_t>(size_param);
        std::size_t hop = size;
        if (p.size() >= 3) {
            if (!isPositiveInteger(p[2]) || p[2] > size_param)
                diags.emit(SW009_BAD_PARAMETER, Severity::Error, span,
                           id,
                           "window hop must be in [1, size], got " +
                               formatNumber(p[2]));
            else
                hop = static_cast<std::size_t>(p[2]);
        }
        out.frameSize = size;
        out.baseRateHz = inputs.front().fireRateHz;
        out.fireRateHz = inputs.front().fireRateHz /
                         static_cast<double>(std::max<std::size_t>(hop, 1));
        out.fftSize = 0;
    } else if (name == "fft") {
        if (!isPowerOfTwoValue(inputs.front().frameSize))
            diags.emit(SW010_FRAME_NOT_POW2, Severity::Error, span, id,
                       "fft input frame size must be a power of two, "
                       "got " + std::to_string(inputs.front().frameSize),
                       "use a power-of-two window size, e.g. 128 or "
                       "256");
        out.fftSize = inputs.front().frameSize;
    } else if (name == "ifft") {
        if (!isPowerOfTwoValue(inputs.front().frameSize))
            diags.emit(SW010_FRAME_NOT_POW2, Severity::Error, span, id,
                       "ifft input frame size must be a power of two, "
                       "got " + std::to_string(inputs.front().frameSize),
                       "use a power-of-two window size upstream");
    } else if (name == "spectrum") {
        if (inputs.front().fftSize == 0)
            diags.emit(SW012_MISSING_FFT, Severity::Error, span, id,
                       "spectrum requires an fft stage upstream",
                       "insert an fft stage before spectrum");
        out.frameSize = inputs.front().fftSize / 2 + 1;
    } else if (name == "lowPass" || name == "highPass") {
        if (!isPowerOfTwoValue(inputs.front().frameSize))
            diags.emit(SW010_FRAME_NOT_POW2, Severity::Error, span, id,
                       name + " frame size must be a power of two, "
                       "got " + std::to_string(inputs.front().frameSize),
                       "use a power-of-two window size upstream");
        const double nyquist = inputs.front().baseRateHz / 2.0;
        const double cutoff = param(0, 1.0);
        if (!(cutoff > 0.0) || cutoff >= nyquist)
            diags.emit(SW011_NYQUIST, Severity::Error, span, id,
                       name + " cutoff " + formatNumber(cutoff) +
                           " Hz must be in (0, Nyquist=" +
                           formatNumber(nyquist) + " Hz)",
                       "lower the cutoff or raise the sample rate");
        else if (cutoff >= 0.9 * nyquist)
            diags.emit(SW105_NEAR_NYQUIST, Severity::Warning, span, id,
                       name + " cutoff " + formatNumber(cutoff) +
                           " Hz sits within 10% of Nyquist (" +
                           formatNumber(nyquist) + " Hz)",
                       "the transition band will alias; lower the "
                       "cutoff");
    } else if (name == "goertzel" || name == "goertzelRel") {
        const double nyquist = inputs.front().baseRateHz / 2.0;
        const double target = param(0, 1.0);
        if (!(target > 0.0) || target >= nyquist)
            diags.emit(SW011_NYQUIST, Severity::Error, span, id,
                       name + " target " + formatNumber(target) +
                           " Hz must be in (0, Nyquist=" +
                           formatNumber(nyquist) + " Hz)",
                       "lower the target or raise the sample rate");
        else if (target >= 0.9 * nyquist)
            diags.emit(SW105_NEAR_NYQUIST, Severity::Warning, span, id,
                       name + " target " + formatNumber(target) +
                           " Hz sits within 10% of Nyquist (" +
                           formatNumber(nyquist) + " Hz)",
                       "move the probe away from the band edge");
    } else if (name == "dominantFreqHz" || name == "dominantFreqMag" ||
               name == "peakToMeanRatio") {
        if (inputs.front().fftSize == 0)
            diags.emit(SW012_MISSING_FFT, Severity::Error, span, id,
                       name + " requires an fft+spectrum stage "
                       "upstream",
                       "insert fft and spectrum stages before " + name);
        out.frameSize = 0;
    } else if (name == "bandThreshold" ||
               name == "outsideBandThreshold") {
        if (p.size() >= 2 && p[0] > p[1])
            diags.emit(SW009_BAD_PARAMETER, Severity::Error, span, id,
                       name + " band [" + formatNumber(p[0]) + ", " +
                           formatNumber(p[1]) + "] is inverted",
                       "swap the band limits");
        else if (p.size() >= 2 && p[0] == p[1])
            diags.emit(SW106_DEGENERATE_BAND, Severity::Warning, span,
                       id,
                       name + " band [" + formatNumber(p[0]) + ", " +
                           formatNumber(p[1]) +
                           "] is a single point",
                       "widen the band; exact equality rarely "
                       "matches");
    } else if (name == "localMaxima" || name == "localMinima") {
        if (p.size() >= 2 && p[0] > p[1])
            diags.emit(SW009_BAD_PARAMETER, Severity::Error, span, id,
                       name + " band [" + formatNumber(p[0]) + ", " +
                           formatNumber(p[1]) + "] is inverted",
                       "swap the band limits");
        else if (p.size() >= 2 && p[0] == p[1])
            diags.emit(SW106_DEGENERATE_BAND, Severity::Warning, span,
                       id,
                       name + " band [" + formatNumber(p[0]) + ", " +
                           formatNumber(p[1]) +
                           "] is a single point",
                       "widen the band; exact equality rarely "
                       "matches");
        if (p.size() >= 3 && (p[2] < 0.0 || p[2] != std::floor(p[2])))
            diags.emit(SW009_BAD_PARAMETER, Severity::Error, span, id,
                       name + " refractory must be a non-negative "
                       "integer, got " + formatNumber(p[2]));
    } else if (name == "consecutive") {
        if (!p.empty() && !isPositiveInteger(p[0]))
            diags.emit(SW009_BAD_PARAMETER, Severity::Error, span, id,
                       "consecutive count must be a positive integer, "
                       "got " + formatNumber(p[0]),
                       "use an integer count >= 1");
        else if (!p.empty() && p[0] == 1.0)
            diags.emit(SW102_IDENTITY_STAGE, Severity::Warning, span,
                       id,
                       "consecutive(1) fires on every upstream "
                       "emission; it is an identity stage",
                       "remove the stage or raise the count");
    }

    if (out.kind == ValueKind::Scalar)
        out.frameSize = 0;

    return out;
}

/**
 * Lowering, fed node by node from the legality walk's hook: resolves
 * each node's inputs to plan indices, gives it its canonical sharing
 * key and, under LowerOptions::dedupe, merges it into the first node
 * with that key (the IL's only merge pass). It keys the registered
 * nodes of an illegal program too, so the analyzer can name their
 * duplicates; such a plan is never finished.
 */
struct PlanBuilder
{
    PlanBuilder(const std::vector<ChannelInfo> &channels,
                const LowerOptions &options)
        : dedupe(options.dedupe)
    {
        plan.channels = channels;
        plan.primaryChannel = -1;
        for (std::size_t i = 0; i < channels.size(); ++i)
            channelIndex[channels[i].name] = static_cast<int>(i);
    }

    /**
     * Add @p stmt as a plan node, or merge it into the first node
     * with its key; returns that first node's index.
     */
    int
    add(const Statement &stmt, const AlgorithmInfo &info,
        const std::vector<NodeStream> &inputs, const NodeStream &stream)
    {
        // Inputs the walk rejected (an unknown channel, a node it did
        // not register) resolve to index 0 and a placeholder key.
        refs.clear();
        inputKeys.clear();
        for (const auto &src : stmt.inputs) {
            if (src.kind == SourceRef::Kind::Channel) {
                const auto it = channelIndex.find(src.channel);
                const int ch = it != channelIndex.end() ? it->second : 0;
                refs.push_back(-(ch + 1));
                inputKeys.push_back(canonicalChannelKey(src.channel));
                if (plan.primaryChannel < 0)
                    plan.primaryChannel = ch;
            } else if (const auto it = denseOf.find(src.node);
                       it != denseOf.end()) {
                refs.push_back(it->second);
                inputKeys.push_back(
                    plan.shareKeys[static_cast<std::size_t>(it->second)]);
            } else {
                refs.push_back(0);
                inputKeys.push_back("node:" + std::to_string(src.node));
            }
        }
        std::string key =
            canonicalNodeKey(stmt.algorithm, stmt.params, inputKeys);

        const int index = static_cast<int>(plan.nodeCount());
        const auto [first, fresh] = nodeByKey.emplace(key, index);
        if (!fresh && dedupe) {
            denseOf[stmt.id] = first->second;
            return first->second;
        }
        plan.algorithms.push_back(stmt.algorithm);
        plan.params.push_back(stmt.params);
        plan.inputOffsets.push_back(
            static_cast<std::uint32_t>(plan.inputRefs.size()));
        plan.inputCounts.push_back(static_cast<std::uint32_t>(refs.size()));
        plan.inputRefs.insert(plan.inputRefs.end(), refs.begin(),
                              refs.end());
        plan.streams.push_back(stream);
        plan.cyclesPerInvoke.push_back(invokeCost(info, inputs.front()));
        double rate = inputs.front().fireRateHz;
        for (const auto &s : inputs)
            rate = std::min(rate, s.fireRateHz);
        plan.invokeRateHz.push_back(rate);
        // Invocations per emission: a decimating node (window with
        // hop h) fires its output once every `stride` invokes.
        plan.blockStride.push_back(static_cast<std::uint32_t>(
            stream.fireRateHz > 0.0
                ? std::max(1.0, std::round(rate / stream.fireRateHz))
                : 1.0));
        plan.ramBytes.push_back(
            nodeRamBytes(info, stmt.params, inputs.front(), stream));
        plan.sourceIds.push_back(stmt.id);
        plan.shareKeys.push_back(std::move(key));
        denseOf[stmt.id] = index;
        return first->second;
    }

    /** Route OUT from node @p out_feeder and seal the plan. */
    ExecutionPlan
    finish(NodeId out_feeder)
    {
        plan.outNode = denseOf.at(out_feeder);
        if (plan.primaryChannel < 0)
            plan.primaryChannel = 0;
        plan.wakeRateBoundHz =
            plan.streams[static_cast<std::size_t>(plan.outNode)]
                .fireRateHz;
        // Freeze: from here on the plan is immutable (shared across
        // engines, threads, and — via hub::FleetPlanCache — tenants).
        plan.seal();
        return std::move(plan);
    }

    ExecutionPlan plan;
    bool dedupe;
    std::unordered_map<std::string, int> channelIndex;
    /** AST node id -> plan index (a merged node's is its first's). */
    std::map<NodeId, int> denseOf;
    /** Canonical key -> index of the first node with that key. */
    std::unordered_map<std::string, int> nodeByKey;
    /** Per-node scratch, reused. */
    std::vector<std::int32_t> refs;
    std::vector<std::string> inputKeys;
};

/**
 * The one home of IL legality. Checks @p program against @p channels
 * statement by statement, emits every SW0xx finding (and the warnings
 * stream derivation raises) to @p diags, and records each node and
 * its derived stream in @p walk. Every node it registers with a known
 * algorithm then goes to @p onNode as (statement, span, algorithm,
 * input streams, node inputs, stream): validate() passes a no-op,
 * and lower() and analyze() hand it to a PlanBuilder.
 */
template <typename OnNode>
void
walkProgram(const Program &program,
            const std::vector<ChannelInfo> &channels, Emitter &diags,
            Walk &walk, OnNode &&onNode)
{
    if (program.statements.empty()) {
        diags.emit(SW001_EMPTY_PROGRAM, Severity::Error,
                   SourceSpan{1, 1}, 0, "program is empty",
                   "a program needs at least one statement and an OUT");
        return;
    }

    std::map<std::string, const ChannelInfo *> channel_by_name;
    for (const auto &ch : channels)
        channel_by_name[ch.name] = &ch;

    // Lowering runs this walk too, so a statement allocates only its
    // two map entries: consumed ids go in a vector sorted once at the
    // end, and the per-statement scratch is reused.
    std::vector<NodeId> consumed;
    std::vector<NodeStream> input_streams;
    std::vector<bool> input_known;
    std::vector<NodeId> node_inputs;

    for (std::size_t index = 0; index < program.statements.size();
         ++index) {
        const Statement &stmt = program.statements[index];
        const SourceSpan span = statementSpan(stmt, index);

        if (walk.seenOut) {
            diags.emit(SW013_OUT_STATEMENT, Severity::Error, span,
                       stmt.id,
                       "statement after OUT; OUT must be the final "
                       "statement",
                       "move the OUT statement to the end");
            continue;
        }
        if (stmt.inputs.empty()) {
            diags.emit(SW015_NO_INPUTS, Severity::Error, span, stmt.id,
                       "statement has no inputs");
            continue;
        }

        // Resolve input streams, tolerating unknown references.
        input_streams.clear();
        input_known.clear();
        node_inputs.clear();
        for (const auto &src : stmt.inputs) {
            if (src.kind == SourceRef::Kind::Channel) {
                auto it = channel_by_name.find(src.channel);
                if (it == channel_by_name.end()) {
                    diags.emit(SW002_UNKNOWN_CHANNEL, Severity::Error,
                               span, stmt.id,
                               "unknown sensor channel '" +
                                   src.channel + "'",
                               "available channels are fixed by the "
                               "hub configuration");
                    input_streams.emplace_back();
                    input_known.push_back(false);
                    continue;
                }
                NodeStream s;
                s.kind = ValueKind::Scalar;
                s.fireRateHz = it->second->sampleRateHz;
                s.baseRateHz = it->second->sampleRateHz;
                input_streams.push_back(s);
                input_known.push_back(true);
            } else {
                auto it = walk.nodes.find(src.node);
                if (it == walk.nodes.end()) {
                    diags.emit(SW004_UNDEFINED_NODE, Severity::Error,
                               span, stmt.id,
                               "node " + std::to_string(src.node) +
                                   " referenced before definition",
                               "programs must be in topological "
                               "order");
                    input_streams.emplace_back();
                    input_known.push_back(false);
                } else {
                    input_streams.push_back(it->second.stream);
                    input_known.push_back(it->second.streamKnown);
                }
                consumed.push_back(src.node);
                node_inputs.push_back(src.node);
            }
        }

        if (stmt.isOut) {
            walk.seenOut = true;
            walk.outSpan = span;
            if (stmt.inputs.size() != 1 ||
                stmt.inputs[0].kind != SourceRef::Kind::Node) {
                diags.emit(SW013_OUT_STATEMENT, Severity::Error, span,
                           0, "OUT must be fed by exactly one node",
                           "aggregate branches (vectorMagnitude, "
                           "and/or) before OUT");
            } else {
                walk.outFeeder = stmt.inputs[0].node;
                if (input_known[0] &&
                    input_streams[0].kind != ValueKind::Scalar)
                    diags.emit(SW013_OUT_STATEMENT, Severity::Error,
                               span, walk.outFeeder,
                               "OUT must be fed a scalar stream, got "
                               "a " + std::string(kindName(
                                          input_streams[0].kind)),
                               "reduce the frame (mean, rms, ...) "
                               "before OUT");
            }
            continue;
        }

        bool register_node = true;
        if (stmt.id <= 0) {
            diags.emit(SW005_BAD_NODE_ID, Severity::Error, span,
                       stmt.id,
                       "node ids must be positive, got " +
                           std::to_string(stmt.id));
            register_node = false;
        } else if (walk.nodes.count(stmt.id)) {
            diags.emit(SW005_BAD_NODE_ID, Severity::Error, span,
                       stmt.id,
                       "duplicate node id " + std::to_string(stmt.id),
                       "ids must be unique within a program");
            register_node = false;
        }

        const auto info = findAlgorithm(stmt.algorithm);
        if (!info) {
            diags.emit(SW003_UNKNOWN_ALGORITHM, Severity::Error, span,
                       stmt.id,
                       "unknown algorithm '" + stmt.algorithm + "'",
                       "see il::standardAlgorithms() for the "
                       "platform's standardized set");
            if (register_node) {
                // Register a placeholder so downstream statements can
                // still be checked without cascading SW004 noise.
                NodeRecord &rec = walk.nodes[stmt.id];
                rec.stmt = &stmt;
                rec.span = span;
                rec.stream.fireRateHz = input_streams.front().fireRateHz;
            }
            continue;
        }

        if (stmt.inputs.size() < info->minInputs ||
            stmt.inputs.size() > info->maxInputs) {
            std::ostringstream msg;
            msg << stmt.algorithm << " takes " << info->minInputs;
            if (info->maxInputs != info->minInputs)
                msg << ".." << info->maxInputs;
            msg << " inputs, got " << stmt.inputs.size();
            diags.emit(SW006_INPUT_ARITY, Severity::Error, span,
                       stmt.id, msg.str());
        }
        if (stmt.params.size() < info->minParams ||
            stmt.params.size() > info->maxParams) {
            std::ostringstream msg;
            msg << stmt.algorithm << " takes " << info->minParams;
            if (info->maxParams != info->minParams)
                msg << ".." << info->maxParams;
            msg << " params, got " << stmt.params.size();
            diags.emit(SW007_PARAM_ARITY, Severity::Error, span,
                       stmt.id, msg.str());
        }

        for (std::size_t i = 0; i < input_streams.size(); ++i) {
            if (!input_known[i] ||
                input_streams[i].kind == info->inputKind)
                continue;
            if (input_streams[i].kind == ValueKind::Scalar &&
                info->inputKind == ValueKind::Frame)
                diags.emit(SW016_SCALAR_INTO_FRAME, Severity::Error,
                           span, stmt.id,
                           "scalar stream feeds frame-only algorithm " +
                               stmt.algorithm,
                           "insert a window(size) stage to assemble "
                           "frames");
            else
                diags.emit(SW008_INPUT_KIND, Severity::Error, span,
                           stmt.id,
                           stmt.algorithm + " expects " +
                               kindName(info->inputKind) +
                               " inputs, got " +
                               kindName(input_streams[i].kind));
            break; // one kind finding per statement is enough
        }

        const NodeStream stream = deriveStreamChecked(
            stmt, *info, input_streams, span, diags);

        if (register_node) {
            walk.nodes[stmt.id] = NodeRecord{&stmt, span, stream, true};
            walk.streams[stmt.id] = stream;
            onNode(stmt, span, *info, input_streams, node_inputs, stream);
        }
    }

    if (!walk.seenOut)
        diags.emit(SW013_OUT_STATEMENT, Severity::Error,
                   statementSpan(program.statements.back(),
                                 program.statements.size() - 1),
                   0, "program has no OUT statement",
                   "terminate the pipeline with 'n -> OUT;'");

    // Dead nodes: defined but never consumed.
    std::sort(consumed.begin(), consumed.end());
    for (const auto &[id, rec] : walk.nodes) {
        if (!std::binary_search(consumed.begin(), consumed.end(), id))
            diags.emit(SW014_DEAD_NODE, Severity::Error, rec.span, id,
                       "node " + std::to_string(id) +
                           " is never consumed; pipelines must "
                           "converge to OUT",
                       "feed it into the remaining chain or delete "
                       "it");
    }
}

/** Throw the walk's first Error in @p diagnostics, if any. */
void
throwFirstError(const std::vector<Diagnostic> &diagnostics)
{
    for (const auto &d : diagnostics) {
        if (d.severity != Severity::Error)
            continue;
        std::ostringstream out;
        out << "IL validation error at " << d.line << ":" << d.column
            << ": [" << d.code << "] " << d.message;
        if (d.node != 0)
            out << " (node " << d.node << ")";
        throw ParseError(out.str());
    }
}

} // namespace

StreamMap
validate(const Program &program, const std::vector<ChannelInfo> &channels)
{
    std::vector<Diagnostic> diagnostics;
    Emitter diags(diagnostics);
    Walk walk;
    walkProgram(program, channels, diags, walk, [](auto &&...) {});
    throwFirstError(diagnostics);
    return std::move(walk.streams);
}

ExecutionPlan
lower(const Program &program, const std::vector<ChannelInfo> &channels,
      const LowerOptions &options)
{
    std::vector<Diagnostic> diagnostics;
    Emitter diags(diagnostics);
    Walk walk;
    PlanBuilder builder(channels, options);
    walkProgram(program, channels, diags, walk,
                [&](const Statement &stmt, SourceSpan,
                    const AlgorithmInfo &info,
                    const std::vector<NodeStream> &inputs,
                    const std::vector<NodeId> &, const NodeStream &stream) {
                    builder.add(stmt, info, inputs, stream);
                });
    throwFirstError(diagnostics);
    return builder.finish(walk.outFeeder);
}

const char *
severityName(Severity severity)
{
    switch (severity) {
      case Severity::Note:
        return "note";
      case Severity::Warning:
        return "warning";
      case Severity::Error:
        return "error";
    }
    return "?";
}

bool
AnalysisResult::ok() const
{
    return errorCount() == 0;
}

std::size_t
AnalysisResult::errorCount() const
{
    std::size_t n = 0;
    for (const auto &d : diagnostics)
        if (d.severity == Severity::Error)
            ++n;
    return n;
}

std::size_t
AnalysisResult::warningCount() const
{
    std::size_t n = 0;
    for (const auto &d : diagnostics)
        if (d.severity == Severity::Warning)
            ++n;
    return n;
}

double
invokeCost(const AlgorithmInfo &info, const NodeStream &input)
{
    double units = 1.0;
    if (info.inputKind != ValueKind::Scalar)
        units = static_cast<double>(
            std::max<std::size_t>(input.frameSize, 1));
    double cost = info.cyclesPerUnit * units;
    if (info.fftFamily && input.frameSize > 1)
        cost *= std::log2(static_cast<double>(input.frameSize));
    return cost;
}

std::size_t
nodeRamBytes(const AlgorithmInfo &info,
             const std::vector<double> &params, const NodeStream &input,
             const NodeStream &output)
{
    // The model charges what the hub firmware stores, not what this
    // host-side simulator stores: the paper's MCU kernels keep Q15
    // 16-bit fixed-point samples (2 bytes each, 4 bytes per complex
    // bin), while the simulator's doubles are an implementation detail
    // of running on a phone-class host.
    constexpr std::size_t kSampleBytes = 2;
    constexpr std::size_t kComplexBinBytes = 2 * kSampleBytes;

    // Fixed per-node bookkeeping: result slot metadata, wave state,
    // input wiring (the engine's Node struct, scaled to MCU terms).
    std::size_t bytes = 32;

    // Result storage the interpreter keeps between waves.
    const std::size_t out_frame =
        std::max<std::size_t>(output.frameSize, 1);
    switch (output.kind) {
      case ValueKind::Scalar:
        bytes += 4;
        break;
      case ValueKind::Frame:
        bytes += kSampleBytes * out_frame;
        break;
      case ValueKind::ComplexFrame:
        // Packed real-input transform keeps N/2+1 complex bins.
        bytes += kComplexBinBytes * (out_frame / 2 + 1);
        break;
    }

    const std::size_t in_frame =
        std::max<std::size_t>(input.frameSize, 1);
    const std::string &name = info.name;

    auto param = [&](std::size_t i, double fallback) {
        return i < params.size() ? params[i] : fallback;
    };

    if (name == "movingAvg") {
        const double w =
            std::min(std::max(1.0, std::floor(param(0, 1.0))), kMaxCount);
        bytes += kSampleBytes * static_cast<std::size_t>(w) + 8;
    } else if (name == "window") {
        // Sample ring plus the Hamming coefficient table when enabled.
        bytes += kSampleBytes * out_frame;
        if (param(1, 0.0) == 1.0)
            bytes += kSampleBytes * out_frame;
    } else if (name == "fft" || name == "ifft") {
        // Plan tables: bit-reversal indices (2 bytes) + twiddle
        // factors (4 bytes per N/2 entry) = 4 bytes per point.
        bytes += 4 * in_frame;
    } else if (name == "lowPass" || name == "highPass") {
        // Embedded FFT plan plus the complex filtering scratch.
        bytes += 4 * in_frame + kComplexBinBytes * (in_frame / 2 + 1);
    } else if (name == "goertzel" || name == "goertzelRel") {
        bytes += 16;
    } else if (name == "localMaxima" || name == "localMinima") {
        bytes += 24;
    } else if (name == "consecutive") {
        bytes += 8;
    } else {
        // Stateless or O(1)-state algorithms (thresholds, reducers,
        // combinators, expMovingAvg, spectrum, features).
        bytes += 8;
    }

    return bytes;
}

AnalysisResult
analyze(const Program &program, const std::vector<ChannelInfo> &channels,
        const LowerOptions &options)
{
    AnalysisResult result;
    Emitter diags(result.diagnostics);
    PlanBuilder builder(channels, options);
    const ExecutionPlan &plan = builder.plan;

    Walk walk;
    walkProgram(
        program, channels, diags, walk,
        [&](const Statement &stmt, SourceSpan span,
            const AlgorithmInfo &info,
            const std::vector<NodeStream> &inputs,
            const std::vector<NodeId> &node_inputs,
            const NodeStream &stream) {
            // Static cost of the statement's plan node. A duplicate's
            // node is its first copy's, whose costs are its own.
            const int first = builder.add(stmt, info, inputs, stream);
            const NodeCost cost =
                plan.nodeCost(static_cast<std::size_t>(first));
            result.cost.nodes[stmt.id] = cost;
            result.cost.cyclesPerSecond += cost.cyclesPerSecond;
            result.cost.ramBytes += cost.ramBytes;

            // Duplicate subtree: the builder keyed an earlier node the
            // same (il::lower() merges the two).
            const NodeId owner =
                plan.sourceIds[static_cast<std::size_t>(first)];
            if (owner != stmt.id)
                diags.emit(SW101_DUPLICATE_SUBTREE, Severity::Warning,
                           span, stmt.id,
                           "node " + std::to_string(stmt.id) +
                               " duplicates node " +
                               std::to_string(owner) +
                               " (same algorithm, parameters, and "
                               "inputs)",
                           "il::lower() merges these; reference "
                           "node " + std::to_string(owner) +
                               " directly to shrink the program");

            // Subsumed threshold chains: a threshold directly feeding
            // the same threshold algorithm folds to one stage.
            if (isConditionalAlgorithm(stmt.algorithm) &&
                stmt.algorithm != "consecutive" &&
                node_inputs.size() == 1) {
                auto parent = walk.nodes.find(node_inputs[0]);
                if (parent != walk.nodes.end() && parent->second.stmt &&
                    parent->second.stmt->algorithm == stmt.algorithm)
                    diags.emit(SW103_SUBSUMED_THRESHOLD,
                               Severity::Warning, span, stmt.id,
                               stmt.algorithm + " node " +
                                   std::to_string(stmt.id) +
                                   " directly follows another " +
                                   stmt.algorithm +
                                   "; the pair folds to a single "
                                   "stage",
                               "merge the two limits into one "
                               "stage");
            }
        });
    result.streams = std::move(walk.streams);

    // Wake-rate bound and the unconditional-wake check: walk the
    // ancestry of the node feeding OUT.
    if (walk.seenOut && walk.outFeeder != 0) {
        auto feeder = walk.nodes.find(walk.outFeeder);
        if (feeder != walk.nodes.end() && feeder->second.streamKnown) {
            result.cost.wakeRateBoundHz =
                feeder->second.stream.fireRateHz;

            bool guarded = false;
            std::set<NodeId> visited;
            std::vector<NodeId> frontier = {walk.outFeeder};
            while (!frontier.empty() && !guarded) {
                const NodeId id = frontier.back();
                frontier.pop_back();
                if (!visited.insert(id).second)
                    continue;
                auto it = walk.nodes.find(id);
                if (it == walk.nodes.end() || it->second.stmt == nullptr)
                    continue;
                if (isConditionalAlgorithm(
                        it->second.stmt->algorithm)) {
                    guarded = true;
                    break;
                }
                for (const auto &src : it->second.stmt->inputs)
                    if (src.kind == SourceRef::Kind::Node)
                        frontier.push_back(src.node);
            }
            if (!guarded)
                diags.emit(SW104_UNCONDITIONAL_WAKE, Severity::Warning,
                           walk.outSpan, walk.outFeeder,
                           "wake-up condition has no threshold or "
                           "conditional stage; OUT fires at up to " +
                               formatNumber(
                                   result.cost.wakeRateBoundHz) +
                               " Hz",
                           "add a threshold (minThreshold, "
                           "bandThreshold, ...) so the main CPU only "
                           "wakes on events");
        }
    }

    // A legal program's plan is the one the walk built: its totals
    // count shared subtrees once (the form the hub instantiates), so
    // the analyzer, admission control and the engine can never
    // disagree. The per-node breakdown above keeps every statement,
    // duplicates included, for diagnostics.
    if (result.ok()) {
        result.plan = builder.finish(walk.outFeeder);
        const ProgramCost lowered = result.plan.cost();
        result.cost.cyclesPerSecond = lowered.cyclesPerSecond;
        result.cost.ramBytes = lowered.ramBytes;
        result.cost.wakeRateBoundHz = lowered.wakeRateBoundHz;
        result.cost.planNodeCount = lowered.planNodeCount;
    }

    return result;
}

std::string
escapeJson(const std::string &text)
{
    std::string out;
    out.reserve(text.size() + 8);
    for (char c : text) {
        switch (c) {
          case '"':
            out += "\\\"";
            break;
          case '\\':
            out += "\\\\";
            break;
          case '\n':
            out += "\\n";
            break;
          case '\t':
            out += "\\t";
            break;
          default:
            if (static_cast<unsigned char>(c) < 0x20) {
                char buf[8];
                std::snprintf(buf, sizeof buf, "\\u%04x", c);
                out += buf;
            } else {
                out += c;
            }
        }
    }
    return out;
}

std::string
renderText(const AnalysisResult &result, const std::string &source_name)
{
    std::ostringstream out;
    for (const auto &d : result.diagnostics) {
        out << source_name << ":" << d.line << ":" << d.column << ": "
            << severityName(d.severity) << ": [" << d.code << "] "
            << d.message;
        if (d.node != 0)
            out << " (node " << d.node << ")";
        out << "\n";
        if (!d.hint.empty())
            out << "    hint: " << d.hint << "\n";
    }
    out << source_name << ": " << result.errorCount() << " error(s), "
        << result.warningCount() << " warning(s); estimated load "
        << formatNumber(result.cost.cyclesPerSecond)
        << " cycle units/s, RAM " << result.cost.ramBytes
        << " bytes, wake-rate bound "
        << formatNumber(result.cost.wakeRateBoundHz) << " Hz\n";
    return out.str();
}

std::string
renderJson(const AnalysisResult &result, const std::string &source_name)
{
    std::ostringstream out;
    out << "{\"file\":\"" << escapeJson(source_name) << "\",";
    out << "\"analyzerVersion\":" << kAnalyzerVersion << ",";
    // Hex string: 64-bit hashes overflow JSON's double-backed numbers.
    out << "\"planHash\":\"" << std::hex << result.plan.sealedHash
        << std::dec << "\",";
    out << "\"ok\":" << (result.ok() ? "true" : "false") << ",";
    out << "\"errors\":" << result.errorCount() << ",";
    out << "\"warnings\":" << result.warningCount() << ",";
    out << "\"diagnostics\":[";
    for (std::size_t i = 0; i < result.diagnostics.size(); ++i) {
        const auto &d = result.diagnostics[i];
        if (i)
            out << ",";
        out << "{\"code\":\"" << d.code << "\",\"severity\":\""
            << severityName(d.severity) << "\",\"line\":" << d.line
            << ",\"column\":" << d.column << ",\"node\":" << d.node
            << ",\"message\":\"" << escapeJson(d.message)
            << "\",\"hint\":\"" << escapeJson(d.hint) << "\"}";
    }
    out << "],\"cost\":{\"cyclesPerSecond\":"
        << formatJsonNumber(result.cost.cyclesPerSecond)
        << ",\"ramBytes\":" << result.cost.ramBytes
        << ",\"wakeRateBoundHz\":"
        << formatJsonNumber(result.cost.wakeRateBoundHz)
        << ",\"planNodeCount\":" << result.cost.planNodeCount
        << ",\"nodes\":[";
    bool first = true;
    for (const auto &[id, cost] : result.cost.nodes) {
        if (!first)
            out << ",";
        first = false;
        out << "{\"id\":" << id << ",\"cyclesPerInvoke\":"
            << formatJsonNumber(cost.cyclesPerInvoke)
            << ",\"invokeRateHz\":"
            << formatJsonNumber(cost.invokeRateHz)
            << ",\"cyclesPerSecond\":"
            << formatJsonNumber(cost.cyclesPerSecond)
            << ",\"ramBytes\":" << cost.ramBytes << "}";
    }
    out << "]}}";
    return out.str();
}

} // namespace sidewinder::il
