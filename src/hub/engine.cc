#include "hub/engine.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstring>

#include "dsp/fft.h"
#include "dsp/q15.h"
#include "il/delta.h"
#include "support/error.h"

namespace sidewinder::hub {

// Install-time costs come precomputed on the ExecutionPlan
// (il::invokeCost / il::nodeRamBytes via il::lower), so the admission
// verdict and the runtime account identically — the engine never
// re-derives a cost from the AST.

namespace {

constexpr std::uint8_t kWaveIdle =
    static_cast<std::uint8_t>(WaveState::Idle);
constexpr std::uint8_t kWaveBlocked =
    static_cast<std::uint8_t>(WaveState::Blocked);
constexpr std::uint8_t kWaveEmitted =
    static_cast<std::uint8_t>(WaveState::Emitted);

/** Channel-major samples viewed as lanes: channel ch at ch * count. */
struct ChannelMajorLanes
{
    const double *samples;
    std::size_t count;

    const double *operator[](std::size_t ch) const
    {
        return samples + ch * count;
    }
};

} // namespace

Engine::Engine(std::vector<il::ChannelInfo> channels, bool share_nodes,
               std::size_t raw_buffer_size, KernelMode kernel_mode)
    : channelInfos(std::move(channels)), shareNodes(share_nodes),
      rawBufferSize(raw_buffer_size), numericMode(kernel_mode)
{
    if (channelInfos.empty())
        throw ConfigError("engine needs at least one channel");
    for (std::size_t i = 0; i < channelInfos.size(); ++i) {
        rawBuffers.emplace_back(rawBufferSize);
        channelIndexByName.emplace(channelInfos[i].name,
                                   static_cast<int>(i));
    }
    // Sized once and never reallocated: install-time cached input
    // pointers reference these slots.
    channelValues.assign(channelInfos.size(), Value());
}

int
Engine::channelIndexOf(const std::string &name) const
{
    auto it = channelIndexByName.find(name);
    if (it == channelIndexByName.end())
        throw ConfigError("engine has no channel '" + name + "'");
    return it->second;
}

void
Engine::addCondition(int condition_id, const il::ExecutionPlan &plan)
{
    if (conditions.count(condition_id))
        throw ConfigError("condition id " + std::to_string(condition_id) +
                          " already installed");
    conditions[condition_id] = buildCondition(condition_id, plan);
    rebuildSchedule();
}

Engine::Condition
Engine::buildCondition(int condition_id, const il::ExecutionPlan &plan)
{
    // Immutability tripwire: a sealed plan (anything out of
    // il::lower(), possibly shared fleet-wide) must not have been
    // touched since lowering. No-op in release builds.
    plan.debugAssertUnchanged();

    // The plan carries channel *indices*; remap them into this
    // engine's channel space by name (identity when the plan was
    // lowered against our channels, which the runtime guarantees).
    std::vector<int> channel_map;
    channel_map.reserve(plan.channels.size());
    for (const auto &ch : plan.channels) {
        const int index = channelIndexOf(ch.name);
        if (channelInfos[static_cast<std::size_t>(index)].sampleRateHz !=
            ch.sampleRateHz)
            throw ConfigError("plan was lowered against channel '" +
                              ch.name + "' at a different sample rate");
        channel_map.push_back(index);
    }

    Condition cond;
    cond.id = condition_id;
    cond.primaryChannel =
        channel_map[static_cast<std::size_t>(plan.primaryChannel)];

    /** Plan node index -> global node index. */
    std::vector<int> local_to_global(plan.nodeCount(), -1);

    for (std::size_t local = 0; local < plan.nodeCount(); ++local) {
        const std::int32_t *refs = plan.inputsOf(local);
        const std::uint32_t arity = plan.inputCounts[local];

        int index = -1;
        if (shareNodes) {
            auto it = nodeByKey.find(plan.shareKeys[local]);
            if (it != nodeByKey.end())
                index = it->second;
        }

        if (index < 0) {
            auto node = std::make_unique<Node>();
            node->key = plan.shareKeys[local];
            node->algorithm = plan.algorithms[local];
            node->params = plan.params[local];

            std::vector<il::NodeStream> input_streams;
            input_streams.reserve(arity);
            node->inputs.reserve(arity);
            node->producers.reserve(arity);
            node->cachedInputs.reserve(arity);
            for (std::uint32_t k = 0; k < arity; ++k) {
                input_streams.push_back(plan.inputStream(local, k));
                if (refs[k] >= 0) {
                    const int global = local_to_global
                        [static_cast<std::size_t>(refs[k])];
                    Node *producer =
                        nodes[static_cast<std::size_t>(global)].get();
                    node->inputs.push_back(global);
                    node->producers.push_back(producer);
                    node->nodeProducers.push_back(producer);
                    node->cachedInputs.push_back(&producer->result);
                } else {
                    const int ch = channel_map
                        [static_cast<std::size_t>(-refs[k] - 1)];
                    node->inputs.push_back(-(ch + 1));
                    node->producers.push_back(nullptr);
                    node->hasChannelInput = true;
                    node->cachedInputs.push_back(
                        &channelValues[static_cast<std::size_t>(ch)]);
                    node->channelViews.push_back(
                        {k, static_cast<std::uint32_t>(ch)});
                }
            }
            node->blockInputs.resize(arity);

            node->kernel =
                makeKernel(plan.algorithms[local], plan.params[local],
                           input_streams, numericMode);
            node->policy = node->kernel->firingPolicy();
            node->rejects = node->kernel->conditional();
            if (node->nodeProducers.empty())
                node->blockKind = BlockKind::Dense;
            else if (node->policy != FiringPolicy::AllInputs)
                node->blockKind = BlockKind::General;
            else if (node->nodeProducers.size() == 1)
                node->blockKind = BlockKind::Single;
            else
                node->blockKind = BlockKind::Multi;
            node->stream = plan.streams[local];
            node->cyclesPerInvoke = plan.cyclesPerInvoke[local];
            node->invokeRateHz = plan.invokeRateHz[local];
            node->ramBytes = plan.ramBytes[local];

            index = static_cast<int>(nodes.size());
            nodes.push_back(std::move(node));
            if (shareNodes) {
                const std::string &key =
                    nodes[static_cast<std::size_t>(index)]->key;
                nodeByKey[key] = index;
                // Delta references resolve through this 8-byte hash;
                // a collision between two distinct live keys would
                // silently splice the wrong subgraph, so it must be
                // loud (64-bit FNV over canonical keys — effectively
                // unreachable).
                const auto [slot, inserted] =
                    nodeByKeyHash.emplace(il::shareKeyHash(key), index);
                if (!inserted && slot->second != index)
                    throw InternalError(
                        "shareKey hash collision on '" + key + "'");
            }
        }

        nodes[static_cast<std::size_t>(index)]->refCount += 1;
        cond.ownedNodes.push_back(index);
        local_to_global[local] = index;
    }

    if (plan.outNode < 0)
        throw InternalError("plan without OUT routing");
    cond.outNode =
        local_to_global[static_cast<std::size_t>(plan.outNode)];
    return cond;
}

void
Engine::releaseConditionNodes(const Condition &cond)
{
    for (int index : cond.ownedNodes) {
        Node *node = nodes[static_cast<std::size_t>(index)].get();
        if (node == nullptr)
            throw InternalError("condition references freed node");
        node->refCount -= 1;
        if (node->refCount == 0) {
            nodeByKey.erase(node->key);
            nodeByKeyHash.erase(il::shareKeyHash(node->key));
            nodes[static_cast<std::size_t>(index)].reset();
        }
    }
}

void
Engine::removeCondition(int condition_id)
{
    auto it = conditions.find(condition_id);
    if (it == conditions.end())
        throw ConfigError("condition id " + std::to_string(condition_id) +
                          " is not installed");
    releaseConditionNodes(it->second);
    conditions.erase(it);
    rebuildSchedule();
}

void
Engine::stageCondition(int condition_id, const il::ExecutionPlan &plan)
{
    auto staged = stagedConditions.find(condition_id);
    if (staged != stagedConditions.end()) {
        // A retried update restages the same id; the earlier staged
        // copy is superseded, never merged.
        releaseConditionNodes(staged->second);
        stagedConditions.erase(staged);
    }
    stagedConditions[condition_id] = buildCondition(condition_id, plan);
    rebuildSchedule();
}

void
Engine::commitStaged()
{
    if (stagedConditions.empty())
        return;
    for (auto &[id, staged] : stagedConditions) {
        auto live = conditions.find(id);
        if (live != conditions.end()) {
            // The staged copy already holds references to every node
            // it shares with the retiring one, so releasing the A
            // copy frees exactly the nodes only it used — shared
            // subgraph state survives the swap untouched.
            releaseConditionNodes(live->second);
            conditions.erase(live);
        }
        conditions[id] = std::move(staged);
    }
    stagedConditions.clear();
    rebuildSchedule();
}

void
Engine::abortStaged()
{
    if (stagedConditions.empty())
        return;
    for (const auto &[id, staged] : stagedConditions) {
        (void)id;
        releaseConditionNodes(staged);
    }
    stagedConditions.clear();
    rebuildSchedule();
}

il::NodeId
Engine::exportSubgraph(std::uint64_t key_hash, il::Program &out,
                       il::NodeId &next_id,
                       std::unordered_map<int, il::NodeId> &emitted) const
{
    const auto root = nodeByKeyHash.find(key_hash);
    if (root == nodeByKeyHash.end())
        throw ConfigError("delta reuses a node that is not live "
                          "(stale shareKey hash)");

    // Depth-first emission so every statement's inputs precede it;
    // an explicit stack keeps deep chains off the call stack.
    struct Visit
    {
        int index;
        bool expanded;
    };
    std::vector<Visit> stack{{root->second, false}};
    while (!stack.empty()) {
        const Visit visit = stack.back();
        stack.pop_back();
        if (emitted.count(visit.index))
            continue;
        const Node *node =
            nodes[static_cast<std::size_t>(visit.index)].get();
        if (node == nullptr)
            throw InternalError("subgraph export hit a freed node");
        if (!visit.expanded) {
            stack.push_back({visit.index, true});
            for (int in : node->inputs)
                if (in >= 0 && !emitted.count(in))
                    stack.push_back({in, false});
            continue;
        }
        il::Statement stmt;
        stmt.algorithm = node->algorithm;
        stmt.params = node->params;
        stmt.id = next_id++;
        for (int in : node->inputs) {
            if (in >= 0) {
                stmt.inputs.push_back(
                    il::SourceRef::makeNode(emitted.at(in)));
            } else {
                const auto ch = static_cast<std::size_t>(-in - 1);
                stmt.inputs.push_back(
                    il::SourceRef::makeChannel(channelInfos[ch].name));
            }
        }
        out.statements.push_back(std::move(stmt));
        emitted[visit.index] = out.statements.back().id;
    }
    return emitted.at(root->second);
}

void
Engine::compactNodes()
{
    std::vector<int> remap(nodes.size(), -1);
    std::size_t live = 0;
    for (std::size_t i = 0; i < nodes.size(); ++i) {
        if (nodes[i] == nullptr)
            continue;
        remap[i] = static_cast<int>(live);
        if (i != live)
            nodes[live] = std::move(nodes[i]);
        ++live;
    }
    if (live == nodes.size())
        return;
    nodes.resize(live);

    const auto moved = [&remap](int &index) {
        index = remap[static_cast<std::size_t>(index)];
    };
    for (auto &[key, index] : nodeByKey)
        moved(index);
    for (auto &[hash, index] : nodeByKeyHash)
        moved(index);
    for (auto *table : {&conditions, &stagedConditions}) {
        for (auto &[id, cond] : *table) {
            moved(cond.outNode);
            for (int &index : cond.ownedNodes)
                moved(index);
        }
    }
    for (auto &node : nodes)
        for (int &in : node->inputs)
            if (in >= 0)
                moved(in);
}

void
Engine::rebuildSchedule()
{
    // Freed slots are dropped rather than left as holes, so the table
    // (and every scan of it) stays the size of what is live however
    // often conditions are removed, re-added or updated.
    compactNodes();
    schedule.clear();
    schedule.reserve(nodes.size());
    for (auto &slot : nodes)
        schedule.push_back(slot.get());

    wakeOuts.clear();
    for (const auto &[id, cond] : conditions)
        wakeOuts.push_back(
            {id, nodes[static_cast<std::size_t>(cond.outNode)].get()});

    for (Node *node : schedule)
        sizeNodeLanes(*node);
    for (Node *node : schedule)
        bindNodeLanes(*node);
}

void
Engine::sizeNodeLanes(Node &node) const
{
    if (laneCapacity == 0)
        return; // No block yet: per-sample engines hold no lanes.
    node.blockStates.resize(laneCapacity);
    if (node.stream.kind == il::ValueKind::Scalar)
        node.blockScalars.resize(laneCapacity);
    else if (node.blockBoxed.size() < laneCapacity)
        // Persistent Values: each wave slot keeps its frame storage
        // across blocks, so steady-state frame emission allocates
        // nothing once capacities have grown.
        node.blockBoxed.resize(laneCapacity);
    // A published list is sparse: at most count / 8 waves.
    node.firingWaves.resize(laneCapacity / 8 + 1);
}

void
Engine::bindNodeLanes(Node &node)
{
    node.blockOutput.states = node.blockStates.data();
    const bool scalar = node.stream.kind == il::ValueKind::Scalar;
    node.blockOutput.scalars = scalar ? node.blockScalars.data() : nullptr;
    node.blockOutput.boxed = scalar ? nullptr : node.blockBoxed.data();
    for (std::size_t k = 0; k < node.producers.size(); ++k) {
        const Node *producer = node.producers[k];
        if (producer == nullptr)
            continue; // A channel lane, patched per block.
        node.blockInputs[k] = {producer->blockOutput.states,
                               producer->blockOutput.scalars,
                               producer->blockOutput.boxed};
    }
}

bool
Engine::hasCondition(int condition_id) const
{
    return conditions.count(condition_id) != 0;
}

void
Engine::pushSamples(const std::vector<double> &values, double timestamp)
{
    if (values.size() != channelInfos.size())
        throw ConfigError("pushSamples expects " +
                          std::to_string(channelInfos.size()) +
                          " values, got " +
                          std::to_string(values.size()));

    for (std::size_t ch = 0; ch < values.size(); ++ch)
        rawBuffers[ch].push(values[ch]);

    // Evaluation wave: the schedule holds the live nodes in
    // topological (installation) order, so a single forward pass
    // settles the whole graph. Firing policies and input value
    // pointers were resolved at install time — per node the loop only
    // reads producer states, channels always count as Emitted.
    for (std::size_t ch = 0; ch < values.size(); ++ch)
        channelValues[ch].scalarStorage() = values[ch];

    for (Node *node : schedule) {
        bool all_emitted = true;
        bool any_emitted = node->hasChannelInput;
        bool any_blocked = false;
        for (const Node *producer : node->nodeProducers) {
            all_emitted = all_emitted &&
                          producer->state == WaveState::Emitted;
            any_emitted = any_emitted ||
                          producer->state == WaveState::Emitted;
            any_blocked = any_blocked ||
                          producer->state == WaveState::Blocked;
        }

        bool run = false;
        switch (node->policy) {
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
            // Not evaluated: a rejection upstream propagates as a
            // miss; pure inactivity stays invisible.
            node->state = any_blocked ? WaveState::Blocked
                                      : WaveState::Idle;
            continue;
        }

        const std::vector<const Value *> *inputs = &node->cachedInputs;
        if (!all_emitted) {
            // AnyInput/ObserveBlocks firing with non-emitting inputs:
            // those positions must read as null.
            node->scratch.resize(node->cachedInputs.size());
            for (std::size_t k = 0; k < node->scratch.size(); ++k) {
                const Node *producer = node->producers[k];
                node->scratch[k] =
                    (producer == nullptr ||
                     producer->state == WaveState::Emitted)
                        ? node->cachedInputs[k]
                        : nullptr;
            }
            inputs = &node->scratch;
        }

        dynamicCycles += node->cyclesPerInvoke;
        // Output-parameter invocation: the kernel writes into the
        // node's persistent result slot, reusing frame storage
        // wave after wave instead of reallocating it.
        if (node->kernel->invokeInto(*inputs, node->result)) {
            node->state = WaveState::Emitted;
            if (tripwireArmed)
                checkRangeTripwire(*node);
        } else {
            // Conditional kernels reject (observable miss); an
            // accumulator is merely not ready yet.
            node->state = node->rejects ? WaveState::Blocked
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

namespace {

/** Bit 0 of every byte: a state lane's Blocked bits, and (one shift
    down) its Emitted bits, on the {Idle 0, Blocked 1, Emitted 2}
    encoding. */
constexpr std::uint64_t kLowBits = 0x0101010101010101ULL;

/** A block's firing is sparse when at most one wave in eight fires:
    such nodes publish their waves as a list. */
constexpr bool
sparse(std::size_t runs, std::size_t count)
{
    return runs * 8 <= count;
}

/** States of waves w..w+7 as one word, wave w + i in byte i (a single
    load on a little-endian target). */
inline std::uint64_t
stateWord(const std::uint8_t *s)
{
    return std::uint64_t{s[0]} | std::uint64_t{s[1]} << 8 |
           std::uint64_t{s[2]} << 16 | std::uint64_t{s[3]} << 24 |
           std::uint64_t{s[4]} << 32 | std::uint64_t{s[5]} << 40 |
           std::uint64_t{s[6]} << 48 | std::uint64_t{s[7]} << 56;
}

} // namespace

void
Engine::runListed(Node &node, const std::uint32_t *waves, std::size_t n,
                  std::size_t count, const Node *blocking)
{
    const BlockOutput &out = node.blockOutput;
    // Materialize the waves that do not fire: Blocked propagates, Idle
    // stays invisible — exactly `state & 1` on the {0,1,2} encoding,
    // and all Idle when nothing upstream blocked.
    if (blocking != nullptr) {
        const std::uint8_t *in = blocking->blockStates.data();
        for (std::size_t w = 0; w < count; ++w)
            out.states[w] = in[w] & kWaveBlocked;
    } else {
        std::memset(out.states, kWaveIdle, count);
    }
    bool any_blocked = blocking != nullptr;
    std::uint32_t emitted = 0;
    if (n != 0) {
        node.kernel->invokeWaves(node.blockInputs, waves, n, out);
        // The node's own emitted waves are a subset of the fired ones
        // (filtered in place when @p waves is this node's list).
        std::uint32_t *list = node.firingWaves.data();
        for (std::size_t i = 0; i < n; ++i) {
            const std::uint32_t w = waves[i];
            const std::uint8_t state = out.states[w];
            list[emitted] = w;
            emitted += state == kWaveEmitted;
            any_blocked = any_blocked || state == kWaveBlocked;
        }
    }
    node.emittedWaves = emitted;
    node.anyBlocked = any_blocked;
}

bool
Engine::runIntersected(Node &node, std::size_t count)
{
    for (const Node *producer : node.nodeProducers)
        if (producer->anyBlocked || !sparse(producer->emittedWaves, count))
            return false;
    // All inputs emitted exactly on the first producer's waves that the
    // others emitted too; nothing blocked, so every other wave is Idle.
    const Node &first = *node.nodeProducers.front();
    std::uint32_t *fire = node.firingWaves.data();
    std::size_t n = 0;
    for (std::size_t i = 0; i < first.emittedWaves; ++i) {
        const std::uint32_t w = first.firingWaves[i];
        bool all = true;
        for (std::size_t p = 1; p < node.nodeProducers.size(); ++p)
            all = all &&
                  node.nodeProducers[p]->blockStates[w] == kWaveEmitted;
        fire[n] = w;
        n += all;
    }
    dynamicCycles += node.cyclesPerInvoke * static_cast<double>(n);
    runListed(node, fire, n, count, nullptr);
    return true;
}

void
Engine::runCombined(Node &node, std::size_t count)
{
    const BlockOutput &out = node.blockOutput;
    // Combine the producers' state lanes into per-wave all-emitted /
    // any-emitted / any-blocked lanes — one vectorizable pass per
    // producer — then derive the fire lane arithmetically:
    // run ? (RunAll + !all_emitted) : any_blocked.
    blockAllEmitted.assign(count, 1);
    blockAnyEmitted.assign(count, node.hasChannelInput ? 1 : 0);
    blockAnyBlocked.assign(count, 0);
    for (const Node *producer : node.nodeProducers) {
        const std::uint8_t *s = producer->blockStates.data();
        std::uint8_t *all = blockAllEmitted.data();
        std::uint8_t *any = blockAnyEmitted.data();
        std::uint8_t *blk = blockAnyBlocked.data();
        for (std::size_t w = 0; w < count; ++w) {
            const std::uint8_t emitted = s[w] == kWaveEmitted;
            all[w] &= emitted;
            any[w] |= emitted;
            blk[w] |= s[w] == kWaveBlocked;
        }
    }

    const std::uint8_t *run_lane = blockAnyEmitted.data();
    if (node.policy == FiringPolicy::AllInputs) {
        run_lane = blockAllEmitted.data();
    } else if (node.policy == FiringPolicy::ObserveBlocks) {
        std::uint8_t *any = blockAnyEmitted.data();
        const std::uint8_t *blk = blockAnyBlocked.data();
        for (std::size_t w = 0; w < count; ++w)
            any[w] |= blk[w];
    }

    fireDecisions.resize(count);
    std::size_t runs = 0;
    std::size_t run_alls = 0;
    {
        const std::uint8_t *all = blockAllEmitted.data();
        const std::uint8_t *blk = blockAnyBlocked.data();
        BlockFire *fire = fireDecisions.data();
        for (std::size_t w = 0; w < count; ++w) {
            // run: RunAll (2) when all inputs emitted, else
            // RunPartial (3). skip: SkipBlocked (1) when a miss
            // propagates, else SkipIdle (0) — numerically the
            // any_blocked byte.
            fire[w] = static_cast<BlockFire>(
                run_lane[w] ? static_cast<std::uint8_t>(3 - all[w])
                            : blk[w]);
            runs += run_lane[w];
            run_alls += run_lane[w] & all[w];
        }
    }

    dynamicCycles += node.cyclesPerInvoke * static_cast<double>(runs);

    if (runs == 0) {
        // Nothing fires: the skip decisions are the states
        // (SkipBlocked = Blocked, SkipIdle = Idle).
        std::memcpy(out.states, fireDecisions.data(), count);
        return;
    }
    node.kernel->invokeBlock(node.blockInputs,
                             runs == count && run_alls == count
                                 ? nullptr
                                 : fireDecisions.data(),
                             count, out);
}

void
Engine::runNodeBlock(Node &node, std::size_t count)
{
    const BlockOutput &out = node.blockOutput;
    switch (node.blockKind) {
      case BlockKind::Dense:
        // All inputs are channels: every wave fires with every input
        // present — no per-wave decision work at all.
        dynamicCycles += node.cyclesPerInvoke * static_cast<double>(count);
        node.kernel->invokeBlock(node.blockInputs, nullptr, count, out);
        break;

      case BlockKind::Single: {
        // The firing decision per wave is a pure function of the one
        // producer's state, and WaveState and BlockFire share their
        // numeric encoding (Idle = 0 = SkipIdle, Blocked = 1 =
        // SkipBlocked, Emitted = 2 = RunAll; single-producer AllInputs
        // firings are never partial), so the producer's published
        // count and list say everything.
        const Node &producer = *node.nodeProducers.front();
        const std::size_t runs = producer.emittedWaves;
        dynamicCycles += node.cyclesPerInvoke * static_cast<double>(runs);
        if (runs == count) {
            node.kernel->invokeBlock(node.blockInputs, nullptr, count,
                                     out);
        } else if (sparse(runs, count)) {
            // A decimating producer upstream (a window): fire on its
            // list in one call, never touching its lane.
            runListed(node, producer.firingWaves.data(), runs, count,
                      producer.anyBlocked ? &producer : nullptr);
            return;
        } else {
            // Dense-ish partial firing: the producer's state lane is
            // the fire lane (one byte copy; the kernel makes a single
            // pass).
            static_assert(sizeof(BlockFire) == 1,
                          "fire lanes copy from state lanes");
            fireDecisions.resize(count);
            std::memcpy(fireDecisions.data(), producer.blockStates.data(),
                        count);
            node.kernel->invokeBlock(node.blockInputs,
                                     fireDecisions.data(), count, out);
        }
        break;
      }

      case BlockKind::Multi:
        if (runIntersected(node, count))
            return;
        runCombined(node, count);
        break;

      case BlockKind::General: {
        bool all_idle = !node.hasChannelInput;
        for (const Node *producer : node.nodeProducers)
            all_idle = all_idle && producer->emittedWaves == 0 &&
                       !producer->anyBlocked;
        if (all_idle) {
            // No input emitted or blocked: nothing fires or propagates.
            runListed(node, nullptr, 0, count, nullptr);
            return;
        }
        runCombined(node, count);
        break;
      }
    }

    // The kernel wrote the whole lane: count it eight waves a word,
    // then list the emitted waves if they turn out sparse.
    const std::uint8_t *states = out.states;
    std::size_t emitted = 0;
    std::uint64_t blocked = 0;
    std::size_t w = 0;
    for (; w + 8 <= count; w += 8) {
        const std::uint64_t word = stateWord(states + w);
        blocked |= word & kLowBits;
        // One bit per byte: the product's top byte sums them (no
        // popcount instruction on the baseline target).
        emitted += static_cast<std::size_t>(
            (((word >> 1) & kLowBits) * kLowBits) >> 56);
    }
    for (; w < count; ++w) {
        emitted += states[w] == kWaveEmitted;
        blocked |= states[w] == kWaveBlocked;
    }
    node.emittedWaves = static_cast<std::uint32_t>(emitted);
    node.anyBlocked = blocked != 0;
    if (emitted == 0 || !sparse(emitted, count))
        return;
    std::uint32_t *list = node.firingWaves.data();
    std::size_t n = 0;
    for (w = 0; w + 8 <= count; w += 8)
        for (std::uint64_t bits = (stateWord(states + w) >> 1) & kLowBits;
             bits != 0; bits &= bits - 1)
            list[n++] = static_cast<std::uint32_t>(
                w + static_cast<std::size_t>(std::countr_zero(bits)) / 8);
    for (; w < count; ++w)
        if (states[w] == kWaveEmitted)
            list[n++] = static_cast<std::uint32_t>(w);
}

void
Engine::raiseBlockWakes(std::size_t count, const WaveClock &clock)
{
    const auto value_at = [](const Node &out_node, std::size_t w) {
        return out_node.stream.kind == il::ValueKind::Scalar
                   ? out_node.blockScalars[w]
                   : out_node.blockBoxed[w].scalar();
    };

    if (wakeOuts.size() == 1 &&
        sparse(wakeOuts.front().node->emittedWaves, count)) {
        // One live condition waking rarely: its out node's published
        // waves are the wakes, in wave order.
        const WakeOut &wake = wakeOuts.front();
        for (std::size_t i = 0; i < wake.node->emittedWaves; ++i) {
            const std::size_t w = wake.node->firingWaves[i];
            pendingWakeEvents.push_back(
                WakeEvent{wake.id, clock(w), value_at(*wake.node, w)});
        }
        return;
    }

    // Wave-major in condition-id order: the exact event order the
    // per-sample loop produces. Every block path writes a node's whole
    // lane, so OR the out nodes' emitted lanes into one
    // any-condition-fired lane and visit only the waves memchr finds.
    bool any = false;
    for (const WakeOut &wake : wakeOuts)
        any = any || wake.node->emittedWaves != 0;
    if (!any)
        return;
    wakeScan.assign(count, 0);
    for (const WakeOut &wake : wakeOuts) {
        const std::uint8_t *s = wake.node->blockStates.data();
        std::uint8_t *scan = wakeScan.data();
        for (std::size_t w = 0; w < count; ++w)
            scan[w] |= s[w] == kWaveEmitted;
    }
    const std::uint8_t *scan_pos = wakeScan.data();
    const std::uint8_t *scan_end = scan_pos + count;
    while ((scan_pos = static_cast<const std::uint8_t *>(std::memchr(
                scan_pos, 1,
                static_cast<std::size_t>(scan_end - scan_pos)))) !=
           nullptr) {
        const std::size_t w =
            static_cast<std::size_t>(scan_pos - wakeScan.data());
        for (const WakeOut &wake : wakeOuts)
            if (wake.node->blockStates[w] == kWaveEmitted)
                pendingWakeEvents.push_back(WakeEvent{
                    wake.id, clock(w), value_at(*wake.node, w)});
        ++scan_pos;
    }
}

template <typename Lanes>
void
Engine::pushLanes(const Lanes &lanes, std::size_t count,
                  const WaveClock &clock)
{
    if (count == 0)
        return;
    if (count == 1) {
        // Degenerate block: the per-sample path is both simpler and
        // exactly equivalent.
        std::vector<double> values(channelInfos.size());
        for (std::size_t ch = 0; ch < channelInfos.size(); ++ch)
            values[ch] = lanes[ch][0];
        pushSamples(values, clock(0));
        return;
    }
    if (count > laneCapacity) {
        // A larger block than any before: regrow every lane and rebind
        // the views (the only per-block work that allocates).
        laneCapacity = count;
        for (Node *node : schedule)
            sizeNodeLanes(*node);
        for (Node *node : schedule)
            bindNodeLanes(*node);
    }

    // Raw history: each ring keeps only the block's last samples, so
    // one bulk append writes its final state directly.
    for (std::size_t ch = 0; ch < channelInfos.size(); ++ch)
        rawBuffers[ch].append(lanes[ch], count);

    // Node-major block loop: for each node, settle all waves at once.
    // Valid because cross-wave state lives only inside kernel objects
    // and a node's firing decisions depend only on producers that
    // precede it in the (topological) schedule — so running node n
    // over waves 0..K-1 before node n+1 sees any wave produces the
    // same stream of states and results as the wave-major loop.
    //
    // Single waves interleave with blocks without syncing node state
    // back: pushSamples() writes every node's state in the wave before
    // any consumer reads it (producers precede consumers in the
    // schedule), and reads a producer's result only when it emitted in
    // that same wave.
    for (Node *node : schedule) {
        for (const ChannelView &view : node->channelViews)
            node->blockInputs[view.slot].scalars = lanes[view.channel];
        runNodeBlock(*node, count);
    }

    raiseBlockWakes(count, clock);
}

void
Engine::pushClocked(const double *const *lanes, std::size_t count,
                    const WaveClock &clock)
{
    pushLanes(lanes, count, clock);
}

void
Engine::pushBlock(const double *samples, std::size_t count,
                  const double *timestamps)
{
    pushLanes(ChannelMajorLanes{samples, count}, count,
              clockOf([timestamps](std::size_t w) {
                  return timestamps[w];
              }));
}

void
Engine::pushBlock(const double *samples, std::size_t count, double t0,
                  double dt)
{
    pushLanes(ChannelMajorLanes{samples, count}, count,
              clockOf([t0, dt](std::size_t w) {
                  return t0 + static_cast<double>(w) * dt;
              }));
}

void
Engine::resetState()
{
    for (Node *node : schedule) {
        node->kernel->reset();
        node->state = WaveState::Idle;
    }
    for (auto &buffer : rawBuffers)
        buffer.clear();
    pendingWakeEvents.clear();
    dynamicCycles = 0.0;
}

std::vector<WakeEvent>
Engine::drainWakeEvents()
{
    std::vector<WakeEvent> out;
    out.swap(pendingWakeEvents);
    return out;
}

void
Engine::drainWakeEvents(std::vector<WakeEvent> &out)
{
    out.clear();
    out.swap(pendingWakeEvents);
}

std::vector<double>
Engine::rawSnapshot(int condition_id) const
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
Engine::nodeCount() const
{
    return schedule.size();
}

double
Engine::estimatedCyclesPerSecond() const
{
    double total = 0.0;
    for (const Node *node : schedule)
        total += node->cyclesPerInvoke * node->invokeRateHz;
    return total;
}

std::size_t
Engine::estimatedRamBytes() const
{
    std::size_t total = 0;
    for (const Node *node : schedule)
        total += node->ramBytes;
    return total;
}

il::ProgramCost
Engine::marginalCost(const il::ExecutionPlan &plan) const
{
    il::ProgramCost cost;
    cost.wakeRateBoundHz = plan.wakeRateBoundHz;
    cost.planNodeCount = plan.nodeCount();
    for (std::size_t i = 0; i < plan.nodeCount(); ++i) {
        // Nodes the engine already holds (same sharing key) are free.
        if (shareNodes && nodeByKey.count(plan.shareKeys[i]))
            continue;
        cost.cyclesPerSecond +=
            plan.cyclesPerInvoke[i] * plan.invokeRateHz[i];
        cost.ramBytes += plan.ramBytes[i];
    }
    return cost;
}

void
Engine::armRangeTripwire(
    std::unordered_map<std::string, RangeBound> bounds)
{
    tripwireBounds = std::move(bounds);
    tripwireArmed = true;
    tripwireViolationCount = 0;
    tripwireFirstViolation.clear();
}

void
Engine::disarmRangeTripwire()
{
    tripwireArmed = false;
    tripwireBounds.clear();
}

void
Engine::checkRangeTripwire(const Node &node)
{
    const auto it = tripwireBounds.find(node.key);
    if (it == tripwireBounds.end())
        return;
    const RangeBound &bound = it->second;
    // Absorb double round-off between the analyzer's closed-form
    // bounds and the kernels' accumulation order.
    const double slack =
        1e-9 * std::max({1.0, std::abs(bound.lo), std::abs(bound.hi)});
    const double lo = bound.lo - slack;
    const double hi = bound.hi + slack;
    double worst = 0.0;
    bool violated = false;
    switch (node.result.kind()) {
      case il::ValueKind::Scalar: {
        const double v = node.result.scalar();
        if (v < lo || v > hi) {
            violated = true;
            worst = v;
        }
        break;
      }
      case il::ValueKind::Frame:
        for (double v : node.result.frame()) {
            if (v < lo || v > hi) {
                violated = true;
                worst = v;
            }
        }
        break;
      case il::ValueKind::ComplexFrame: {
        // Complex bins are bounded by magnitude: |X(k)| <= hi.
        const auto &bins = node.result.complexFrame();
        std::vector<double> mags(bins.size());
        dsp::magnitudesInto(bins.data(), bins.size(), mags.data());
        for (double mag : mags) {
            if (mag > hi) {
                violated = true;
                worst = mag;
            }
        }
        break;
      }
    }
    if (!violated)
        return;
    ++tripwireViolationCount;
    if (tripwireFirstViolation.empty()) {
        tripwireFirstViolation = node.key + ": observed " +
                                 std::to_string(worst) +
                                 " outside proven [" +
                                 std::to_string(bound.lo) + ", " +
                                 std::to_string(bound.hi) + "]";
    }
}

std::uint64_t
Engine::q15SaturationEvents()
{
    return dsp::q15SaturationEventCount();
}

void
Engine::resetQ15SaturationEvents()
{
    dsp::resetQ15SaturationEvents();
}

} // namespace sidewinder::hub
