#include "reference/legacy_engine.h"

#include <cstdio>

#include "il/analyze.h"
#include "support/error.h"

namespace sidewinder::reference {

using hub::FiringPolicy;
using hub::Value;
using hub::WakeEvent;
using hub::WaveState;

namespace {

/**
 * The engine's original canonical node identity: algorithm, %.17g
 * parameters, and *global node indices* of the inputs. The plan path
 * replaced the indices with structural input keys; for one engine's
 * install order the two dedupe identically.
 */
std::string
makeNodeKey(const il::Statement &stmt, const std::vector<int> &inputs)
{
    std::string key;
    key.reserve(stmt.algorithm.size() + 16 * stmt.params.size() +
                8 * inputs.size() + 2);
    key += stmt.algorithm;
    key += '(';
    char buf[32];
    for (double p : stmt.params) {
        std::snprintf(buf, sizeof buf, "%.17g,", p);
        key += buf;
    }
    key += ')';
    for (int in : inputs) {
        std::snprintf(buf, sizeof buf, "<%d", in);
        key += buf;
    }
    return key;
}

} // namespace

LegacyEngine::LegacyEngine(std::vector<il::ChannelInfo> channels,
                           bool share_nodes, std::size_t raw_buffer_size)
    : channelInfos(std::move(channels)), shareNodes(share_nodes),
      rawBufferSize(raw_buffer_size)
{
    if (channelInfos.empty())
        throw ConfigError("engine needs at least one channel");
    for (std::size_t i = 0; i < channelInfos.size(); ++i) {
        rawBuffers.emplace_back(rawBufferSize);
        channelIndexByName.emplace(channelInfos[i].name,
                                   static_cast<int>(i));
    }
}

int
LegacyEngine::channelIndexOf(const std::string &name) const
{
    auto it = channelIndexByName.find(name);
    if (it == channelIndexByName.end())
        throw ConfigError("engine has no channel '" + name + "'");
    return it->second;
}

void
LegacyEngine::addCondition(int condition_id, const il::Program &program)
{
    if (conditions.count(condition_id))
        throw ConfigError("condition id " + std::to_string(condition_id) +
                          " already installed");

    const il::StreamMap streams = il::validate(program, channelInfos);

    Condition cond;
    cond.id = condition_id;
    cond.primaryChannel = -1;

    std::map<il::NodeId, int> local_to_global;

    for (const auto &stmt : program.statements) {
        std::vector<int> inputs;
        std::vector<il::NodeStream> input_streams;
        for (const auto &src : stmt.inputs) {
            if (src.kind == il::SourceRef::Kind::Channel) {
                const int ch = channelIndexOf(src.channel);
                inputs.push_back(-(ch + 1));
                il::NodeStream s;
                s.kind = il::ValueKind::Scalar;
                s.fireRateHz = channelInfos[ch].sampleRateHz;
                s.baseRateHz = channelInfos[ch].sampleRateHz;
                input_streams.push_back(s);
                if (cond.primaryChannel < 0)
                    cond.primaryChannel = ch;
            } else {
                const int global = local_to_global.at(src.node);
                inputs.push_back(global);
                input_streams.push_back(nodes[global]->stream);
            }
        }

        if (stmt.isOut) {
            cond.outNode = inputs.front();
            continue;
        }

        std::string key = makeNodeKey(stmt, inputs);

        int index = -1;
        if (shareNodes) {
            auto it = nodeByKey.find(key);
            if (it != nodeByKey.end())
                index = it->second;
        }

        if (index < 0) {
            auto node = std::make_unique<Node>();
            node->key = std::move(key);
            node->algorithm = stmt.algorithm;
            node->kernel = hub::makeKernel(stmt.algorithm, stmt.params,
                                           input_streams);
            node->inputs = inputs;
            node->stream = streams.at(stmt.id);
            index = static_cast<int>(nodes.size());
            nodes.push_back(std::move(node));
            if (shareNodes)
                nodeByKey[nodes[index]->key] = index;
        }

        local_to_global[stmt.id] = index;
    }

    if (cond.outNode < 0)
        throw InternalError("validated program without OUT node");
    if (cond.primaryChannel < 0)
        cond.primaryChannel = 0;

    conditions[condition_id] = std::move(cond);
}

void
LegacyEngine::pushSamples(const std::vector<double> &values,
                          double timestamp)
{
    if (values.size() != channelInfos.size())
        throw ConfigError("pushSamples expects " +
                          std::to_string(channelInfos.size()) +
                          " values, got " +
                          std::to_string(values.size()));

    for (std::size_t ch = 0; ch < values.size(); ++ch)
        rawBuffers[ch].push(values[ch]);

    channelValues.resize(values.size());
    for (std::size_t ch = 0; ch < values.size(); ++ch)
        channelValues[ch] = Value(values[ch]);
    const std::vector<Value> &channel_values = channelValues;

    for (auto &slot : nodes) {
        Node *node = slot.get();
        if (node == nullptr)
            continue;

        bool all_emitted = true;
        bool any_emitted = false;
        bool any_blocked = false;
        std::vector<const Value *> &input_ptrs = node->scratch;
        input_ptrs.clear();

        for (int in : node->inputs) {
            const Value *value = nullptr;
            WaveState in_state;
            if (in < 0) {
                in_state = WaveState::Emitted;
                value = &channel_values[static_cast<std::size_t>(
                    -in - 1)];
            } else {
                const Node *producer =
                    nodes[static_cast<std::size_t>(in)].get();
                in_state = producer->state;
                if (in_state == WaveState::Emitted)
                    value = &producer->result;
            }
            all_emitted =
                all_emitted && in_state == WaveState::Emitted;
            any_emitted =
                any_emitted || in_state == WaveState::Emitted;
            any_blocked =
                any_blocked || in_state == WaveState::Blocked;
            input_ptrs.push_back(value);
        }

        bool run = false;
        switch (node->kernel->firingPolicy()) {
          case FiringPolicy::AllInputs:
            run = all_emitted;
            break;
          case FiringPolicy::AnyInput:
            run = any_emitted;
            break;
          case FiringPolicy::ObserveBlocks:
            run = any_emitted || any_blocked;
            break;
        }

        if (!run) {
            node->state = any_blocked ? WaveState::Blocked
                                      : WaveState::Idle;
            continue;
        }

        if (node->kernel->invokeInto(input_ptrs, node->result)) {
            node->state = WaveState::Emitted;
        } else {
            node->state = node->kernel->conditional()
                              ? WaveState::Blocked
                              : WaveState::Idle;
        }
    }

    for (const auto &[id, cond] : conditions) {
        const Node *out_node =
            nodes[static_cast<std::size_t>(cond.outNode)].get();
        if (out_node != nullptr &&
            out_node->state == WaveState::Emitted) {
            pendingWakeEvents.push_back(
                WakeEvent{id, timestamp, out_node->result.scalar()});
        }
    }
}

std::vector<WakeEvent>
LegacyEngine::drainWakeEvents()
{
    std::vector<WakeEvent> out;
    out.swap(pendingWakeEvents);
    return out;
}

std::vector<double>
LegacyEngine::rawSnapshot(int condition_id) const
{
    auto it = conditions.find(condition_id);
    if (it == conditions.end())
        throw ConfigError("condition id " + std::to_string(condition_id) +
                          " is not installed");
    return rawBuffers[static_cast<std::size_t>(
                          it->second.primaryChannel)]
        .snapshot();
}

std::size_t
LegacyEngine::nodeCount() const
{
    std::size_t count = 0;
    for (const auto &slot : nodes)
        if (slot != nullptr)
            ++count;
    return count;
}

} // namespace sidewinder::reference
