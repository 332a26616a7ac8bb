/**
 * @file
 * Frozen copy of the hub engine's original AST-walking interpreter,
 * kept verbatim (modulo naming) as a behavioral reference, less the
 * members no test or bench drives (removal, reset and the static cost
 * estimates).
 *
 * The live hub::Engine executes lowered il::ExecutionPlans; this class
 * preserves the statement-at-a-time install path and the per-wave
 * virtual firingPolicy dispatch it replaced. The plan property test
 * drives both against identical sample streams and requires
 * bit-identical wake events, which is what licenses every future
 * change to the plan path.
 *
 * Do not extend this class: it is a fixture, not a second engine.
 */

#ifndef SIDEWINDER_REFERENCE_LEGACY_ENGINE_H
#define SIDEWINDER_REFERENCE_LEGACY_ENGINE_H

#include <map>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "hub/engine.h"
#include "hub/kernel.h"
#include "il/ast.h"
#include "il/validate.h"
#include "support/ring_buffer.h"

namespace sidewinder::reference {

/** The pre-ExecutionPlan interpreter, preserved for differential tests. */
class LegacyEngine
{
  public:
    explicit LegacyEngine(std::vector<il::ChannelInfo> channels,
                          bool share_nodes = true,
                          std::size_t raw_buffer_size = 200);

    /** Validate and install a wake-up condition from the AST. */
    void addCondition(int condition_id, const il::Program &program);

    /**
     * Feed one synchronous sample per channel and run one evaluation
     * wave over the slot array (freed slots skipped in place).
     */
    void pushSamples(const std::vector<double> &values, double timestamp);

    /** Retrieve and clear the wake-ups raised since the last drain. */
    std::vector<hub::WakeEvent> drainWakeEvents();

    /** Recent raw samples of the condition's primary channel. */
    std::vector<double> rawSnapshot(int condition_id) const;

    /** Live (shared) algorithm instances across all conditions. */
    std::size_t nodeCount() const;

  private:
    struct Node
    {
        std::string key;
        std::string algorithm;
        std::unique_ptr<hub::Kernel> kernel;
        /** Inputs: node index (>= 0) or channel as -(index + 1). */
        std::vector<int> inputs;
        il::NodeStream stream;

        // Per-wave state.
        hub::WaveState state = hub::WaveState::Idle;
        hub::Value result;
        std::vector<const hub::Value *> scratch;
    };

    struct Condition
    {
        int id = 0;
        int outNode = -1;
        int primaryChannel = 0;
    };

    int channelIndexOf(const std::string &name) const;

    std::vector<il::ChannelInfo> channelInfos;
    std::unordered_map<std::string, int> channelIndexByName;
    bool shareNodes;
    std::size_t rawBufferSize;

    std::vector<std::unique_ptr<Node>> nodes;
    std::unordered_map<std::string, int> nodeByKey;
    std::map<int, Condition> conditions;
    std::vector<RingBuffer<double>> rawBuffers;
    std::vector<hub::WakeEvent> pendingWakeEvents;
    std::vector<hub::Value> channelValues;
};

} // namespace sidewinder::reference

#endif // SIDEWINDER_REFERENCE_LEGACY_ENGINE_H
