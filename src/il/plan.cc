#include "il/plan.h"

#include <cassert>
#include <cstdio>
#include <cstring>
#include <sstream>

#include "il/writer.h"
#include "support/error.h"

namespace sidewinder::il {

namespace {

/** Compact %g rendering for the plan dump (display, not identity). */
std::string
formatRate(double v)
{
    char buf[40];
    std::snprintf(buf, sizeof buf, "%g", v);
    return buf;
}

std::string
describeStream(const NodeStream &stream)
{
    std::string out;
    switch (stream.kind) {
      case ValueKind::Scalar:
        out = "scalar";
        break;
      case ValueKind::Frame:
        out = "frame[" + std::to_string(stream.frameSize) + "]";
        break;
      case ValueKind::ComplexFrame:
        out = "complex[" + std::to_string(stream.frameSize) + "]";
        break;
    }
    out += " @ " + formatRate(stream.fireRateHz) + " Hz";
    return out;
}

} // namespace

std::string
canonicalNodeKey(const std::string &algorithm,
                 const std::vector<double> &params,
                 const std::vector<std::string> &input_keys)
{
    std::size_t inputs_size = 0;
    for (const auto &k : input_keys)
        inputs_size += k.size() + 1;
    std::string key;
    key.reserve(algorithm.size() + 18 * params.size() + inputs_size + 2);
    key += algorithm;
    key += '(';
    char buf[32];
    for (double p : params) {
        // %.17g: distinct doubles never collide on a truncated
        // rendering (the old optimize-time key used the default
        // 6-digit precision and could disagree with the engine).
        std::snprintf(buf, sizeof buf, "%.17g,", p);
        key += buf;
    }
    key += ')';
    for (const auto &in : input_keys) {
        key += '<';
        key += in;
    }
    return key;
}

std::string
canonicalChannelKey(const std::string &channel)
{
    return "ch:" + channel;
}

NodeStream
ExecutionPlan::inputStream(std::size_t node, std::size_t input) const
{
    const std::int32_t ref = inputRefs[inputOffsets[node] + input];
    if (ref >= 0)
        return streams[static_cast<std::size_t>(ref)];
    const auto &channel = channels[static_cast<std::size_t>(-ref - 1)];
    NodeStream s;
    s.kind = ValueKind::Scalar;
    s.fireRateHz = channel.sampleRateHz;
    s.baseRateHz = channel.sampleRateHz;
    return s;
}

NodeCost
ExecutionPlan::nodeCost(std::size_t node) const
{
    return NodeCost{cyclesPerInvoke[node], invokeRateHz[node],
                    cyclesPerInvoke[node] * invokeRateHz[node],
                    ramBytes[node]};
}

ProgramCost
ExecutionPlan::cost() const
{
    ProgramCost total;
    for (std::size_t i = 0; i < nodeCount(); ++i) {
        const NodeCost node = nodeCost(i);
        total.cyclesPerSecond += node.cyclesPerSecond;
        total.ramBytes += node.ramBytes;
        total.nodes[sourceIds[i]] = node;
    }
    total.wakeRateBoundHz = wakeRateBoundHz;
    total.planNodeCount = nodeCount();
    return total;
}

namespace {

/**
 * Order-sensitive FNV-style accumulator for the structural hash.
 *
 * Mixes eight bytes per multiply instead of the classic one: the
 * dominant input is the shareKeys strings (recursively expanded
 * canonical keys, kilobytes for FFT chains), and seal() runs inside
 * every il::lower(), so byte-at-a-time FNV showed up as ~30% of
 * BM_Lower. A tripwire only needs determinism and sensitivity to any
 * byte change, not FNV's exact stream semantics.
 */
struct Fnv
{
    std::uint64_t state = 1469598103934665603ULL;

    void
    bytes(const void *data, std::size_t size)
    {
        const auto *p = static_cast<const unsigned char *>(data);
        while (size >= 8) {
            std::uint64_t w;
            std::memcpy(&w, p, 8);
            state = (state ^ w) * 1099511628211ULL;
            p += 8;
            size -= 8;
        }
        if (size > 0) {
            std::uint64_t tail = 0;
            std::memcpy(&tail, p, size);
            // Fold the tail length in so "abc" and "abc\0" differ
            // even within a single call.
            state = (state ^ tail ^ (static_cast<std::uint64_t>(size)
                                     << 56)) *
                    1099511628211ULL;
        }
    }

    void
    u64(std::uint64_t v)
    {
        bytes(&v, sizeof v);
    }

    void
    f64(double v)
    {
        // Bit pattern, not value: the invariant is "no byte changed",
        // which is stricter than numeric equality (and well-defined
        // for -0.0 / NaN payloads).
        std::uint64_t bits;
        std::memcpy(&bits, &v, sizeof bits);
        u64(bits);
    }

    void
    str(const std::string &s)
    {
        u64(s.size());
        bytes(s.data(), s.size());
    }
};

} // namespace

std::uint64_t
ExecutionPlan::structuralHash() const
{
    Fnv h;
    h.u64(channels.size());
    for (const auto &ch : channels) {
        h.str(ch.name);
        h.f64(ch.sampleRateHz);
    }
    h.u64(nodeCount());
    for (std::size_t i = 0; i < nodeCount(); ++i) {
        h.str(algorithms[i]);
        h.u64(params[i].size());
        for (double p : params[i])
            h.f64(p);
        h.u64(inputOffsets[i]);
        h.u64(inputCounts[i]);
        h.str(shareKeys[i]);
        h.u64(static_cast<std::uint64_t>(streams[i].kind));
        h.f64(streams[i].fireRateHz);
        h.f64(streams[i].baseRateHz);
        h.u64(streams[i].frameSize);
        h.u64(streams[i].fftSize);
        h.f64(cyclesPerInvoke[i]);
        h.f64(invokeRateHz[i]);
        h.u64(ramBytes[i]);
        h.u64(blockStride[i]);
        h.u64(static_cast<std::uint64_t>(sourceIds[i]));
    }
    h.u64(inputRefs.size());
    for (std::int32_t ref : inputRefs)
        h.u64(static_cast<std::uint64_t>(
            static_cast<std::int64_t>(ref)));
    h.u64(static_cast<std::uint64_t>(
        static_cast<std::int64_t>(outNode)));
    h.u64(static_cast<std::uint64_t>(
        static_cast<std::int64_t>(primaryChannel)));
    h.f64(wakeRateBoundHz);
    return h.state != 0 ? h.state : 1;
}

void
ExecutionPlan::debugAssertUnchanged() const
{
    assert(!sealed() || structuralHash() == sealedHash);
}

Program
ExecutionPlan::toProgram() const
{
    Program program;
    for (std::size_t i = 0; i < nodeCount(); ++i) {
        Statement stmt;
        stmt.algorithm = algorithms[i];
        stmt.id = static_cast<NodeId>(i + 1);
        stmt.params = params[i];
        const std::int32_t *refs = inputsOf(i);
        for (std::uint32_t k = 0; k < inputCounts[i]; ++k) {
            SourceRef src;
            if (refs[k] >= 0) {
                src.kind = SourceRef::Kind::Node;
                src.node = static_cast<NodeId>(refs[k] + 1);
            } else {
                src.kind = SourceRef::Kind::Channel;
                src.channel =
                    channels[static_cast<std::size_t>(-refs[k] - 1)]
                        .name;
            }
            stmt.inputs.push_back(std::move(src));
        }
        program.statements.push_back(std::move(stmt));
    }

    if (outNode < 0)
        throw InternalError("execution plan has no OUT routing");
    Statement out;
    out.isOut = true;
    SourceRef src;
    src.kind = SourceRef::Kind::Node;
    src.node = static_cast<NodeId>(outNode + 1);
    out.inputs.push_back(std::move(src));
    program.statements.push_back(std::move(out));
    return program;
}

std::string
renderPlan(const ExecutionPlan &plan)
{
    std::ostringstream out;
    out << "plan: " << plan.channels.size() << " channel(s), "
        << plan.nodeCount() << " node(s)\n";
    for (std::size_t i = 0; i < plan.channels.size(); ++i)
        out << "  ch" << i << ": " << plan.channels[i].name << " @ "
            << formatRate(plan.channels[i].sampleRateHz) << " Hz\n";

    for (std::size_t i = 0; i < plan.nodeCount(); ++i) {
        out << "  n" << i << ": " << plan.algorithms[i];
        if (!plan.params[i].empty()) {
            out << "(";
            for (std::size_t p = 0; p < plan.params[i].size(); ++p) {
                if (p)
                    out << ",";
                out << writeParam(plan.params[i][p]);
            }
            out << ")";
        }
        out << " <-";
        const std::int32_t *refs = plan.inputsOf(i);
        for (std::uint32_t k = 0; k < plan.inputCounts[i]; ++k) {
            out << (k ? "," : "") << " ";
            if (refs[k] >= 0)
                out << "n" << refs[k];
            else
                out << "ch" << (-refs[k] - 1);
        }
        out << " | " << describeStream(plan.streams[i])
            << " | cycles/invoke " << formatRate(plan.cyclesPerInvoke[i])
            << " @ " << formatRate(plan.invokeRateHz[i]) << " Hz | ram "
            << plan.ramBytes[i] << " B | stride "
            << plan.blockStride[i] << "\n";
    }

    out << "  out: n" << plan.outNode << "\n";
    out << "  primary channel: ch" << plan.primaryChannel << "\n";
    out << "  wake-rate bound: " << formatRate(plan.wakeRateBoundHz)
        << " Hz\n";
    const ProgramCost cost = plan.cost();
    out << "  total: " << formatRate(cost.cyclesPerSecond)
        << " cycle units/s, " << cost.ramBytes << " bytes\n";
    return out.str();
}

} // namespace sidewinder::il
