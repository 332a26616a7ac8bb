#include "il/lower.h"

#include <algorithm>
#include <cmath>
#include <map>
#include <unordered_map>

#include "il/algorithm_info.h"
#include "support/error.h"

namespace sidewinder::il {

ExecutionPlan
lower(const Program &program, const std::vector<ChannelInfo> &channels,
      const LowerOptions &options)
{
    // validate() runs the analyzer's legality walk, throws on any
    // illegal program and hands back the per-node stream properties;
    // lowering itself cannot fail.
    const StreamMap stream_map = validate(program, channels);

    ExecutionPlan plan;
    plan.channels = channels;
    plan.primaryChannel = -1;

    std::unordered_map<std::string, int> channel_index;
    for (std::size_t i = 0; i < channels.size(); ++i)
        channel_index[channels[i].name] = static_cast<int>(i);

    /** AST node id -> dense plan index (post-dedupe). */
    std::map<NodeId, int> dense_of;
    /** Canonical key -> dense plan index. */
    std::unordered_map<std::string, int> node_by_key;

    for (const auto &stmt : program.statements) {
        // Resolve inputs to the plan's index encoding and gather the
        // child keys the canonical sharing key is built from.
        std::vector<std::int32_t> refs;
        std::vector<std::string> input_keys;
        std::vector<NodeStream> input_streams;
        refs.reserve(stmt.inputs.size());
        input_keys.reserve(stmt.inputs.size());
        input_streams.reserve(stmt.inputs.size());
        for (const auto &src : stmt.inputs) {
            if (src.kind == SourceRef::Kind::Channel) {
                const int ch = channel_index.at(src.channel);
                refs.push_back(-(ch + 1));
                input_keys.push_back(canonicalChannelKey(src.channel));
                NodeStream s;
                s.kind = ValueKind::Scalar;
                s.fireRateHz = channels[static_cast<std::size_t>(ch)]
                                   .sampleRateHz;
                s.baseRateHz = s.fireRateHz;
                input_streams.push_back(s);
                if (plan.primaryChannel < 0)
                    plan.primaryChannel = ch;
            } else {
                const int dense = dense_of.at(src.node);
                refs.push_back(dense);
                input_keys.push_back(
                    plan.shareKeys[static_cast<std::size_t>(dense)]);
                input_streams.push_back(
                    plan.streams[static_cast<std::size_t>(dense)]);
            }
        }

        if (stmt.isOut) {
            plan.outNode = refs.front();
            continue;
        }

        std::string key =
            canonicalNodeKey(stmt.algorithm, stmt.params, input_keys);

        if (options.dedupe) {
            auto it = node_by_key.find(key);
            if (it != node_by_key.end()) {
                dense_of[stmt.id] = it->second;
                continue;
            }
        }

        const auto info = findAlgorithm(stmt.algorithm);
        if (!info)
            throw InternalError(
                "validated program with unknown algorithm");

        const int index = static_cast<int>(plan.nodeCount());
        plan.algorithms.push_back(stmt.algorithm);
        plan.params.push_back(stmt.params);
        plan.inputOffsets.push_back(
            static_cast<std::uint32_t>(plan.inputRefs.size()));
        plan.inputCounts.push_back(
            static_cast<std::uint32_t>(refs.size()));
        plan.inputRefs.insert(plan.inputRefs.end(), refs.begin(),
                              refs.end());
        plan.streams.push_back(stream_map.at(stmt.id));
        plan.cyclesPerInvoke.push_back(
            invokeCost(*info, input_streams.front()));
        double rate = input_streams.front().fireRateHz;
        for (const auto &s : input_streams)
            rate = std::min(rate, s.fireRateHz);
        plan.invokeRateHz.push_back(rate);
        // Invocations per emission: a decimating node (window with
        // hop h) fires its output once every `stride` invokes.
        const double out_rate = stream_map.at(stmt.id).fireRateHz;
        plan.blockStride.push_back(static_cast<std::uint32_t>(
            out_rate > 0.0 ? std::max(1.0, std::round(rate / out_rate))
                           : 1.0));
        plan.ramBytes.push_back(
            nodeRamBytes(*info, stmt.params, input_streams.front(),
                         stream_map.at(stmt.id)));
        plan.sourceIds.push_back(stmt.id);

        node_by_key.emplace(key, index);
        plan.shareKeys.push_back(std::move(key));
        dense_of[stmt.id] = index;
    }

    if (plan.outNode < 0)
        throw InternalError("validated program without OUT node");
    if (plan.primaryChannel < 0)
        plan.primaryChannel = 0;
    plan.wakeRateBoundHz =
        plan.streams[static_cast<std::size_t>(plan.outNode)].fireRateHz;

    // Freeze: from here on the plan is immutable (shared across
    // engines, threads, and — via hub::FleetPlanCache — tenants).
    plan.seal();
    return plan;
}

} // namespace sidewinder::il
