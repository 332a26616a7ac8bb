/**
 * @file
 * Tests for OTA-style live reconfiguration (docs/fault-model.md,
 * "Live reconfiguration"): versioned delta plan updates staged in the
 * engine's shadow slot, the atomic A/B swap with shared-subgraph
 * state carry-over, and the rollback paths — analyzer rejection,
 * stale hash references, stalled transfers, and superseded epochs.
 * Also pins the `swlint --diff-plan` golden corpus
 * (tests/data/deltas/).
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <unordered_set>
#include <vector>

#include "core/algorithm.h"
#include "core/pipeline.h"
#include "core/sensor_manager.h"
#include "core/sensors.h"
#include "hub/mcu.h"
#include "hub/reconfig.h"
#include "hub/runtime.h"
#include "il/delta.h"
#include "il/lower.h"
#include "il/parser.h"
#include "support/error.h"
#include "transport/link.h"
#include "transport/messages.h"

namespace sidewinder::hub {
namespace {

constexpr double kSampleRate = 50.0;
constexpr double kSamplePeriod = 1.0 / kSampleRate;

/** The Figure 2a motion pipeline with a tunable threshold. */
core::ProcessingPipeline
motionPipeline(double threshold)
{
    core::ProcessingPipeline pipeline;
    std::vector<core::ProcessingBranch> branches;
    branches.emplace_back(core::channel::accelerometerX);
    branches.emplace_back(core::channel::accelerometerY);
    branches.emplace_back(core::channel::accelerometerZ);
    for (auto &branch : branches)
        branch.add(core::MovingAverage(10));
    pipeline.add(branches);
    pipeline.add(core::VectorMagnitude());
    pipeline.add(core::MinThreshold(threshold));
    return pipeline;
}

/** A second condition sharing the smoothing prefix. */
core::ProcessingPipeline
rangePipeline()
{
    core::ProcessingPipeline pipeline;
    std::vector<core::ProcessingBranch> branches;
    branches.emplace_back(core::channel::accelerometerX);
    branches.emplace_back(core::channel::accelerometerY);
    branches.emplace_back(core::channel::accelerometerZ);
    for (auto &branch : branches)
        branch.add(core::MovingAverage(10));
    pipeline.add(branches);
    pipeline.add(core::VectorMagnitude());
    pipeline.add(core::MaxThreshold(40));
    return pipeline;
}

/** Records wake-up callbacks for assertions. */
class Recorder : public core::SensorEventListener
{
  public:
    void
    onSensorEvent(const core::SensorData &data) override
    {
        timestamps.push_back(data.timestamp);
        values.push_back(data.triggerValue);
    }
    std::vector<double> timestamps;
    std::vector<double> values;
};

/** Deterministic synthetic accel wave: quiet, burst, quiet. */
std::vector<double>
sampleAt(std::size_t i)
{
    const double t = static_cast<double>(i) * kSamplePeriod;
    const double burst = (t >= 4.0 && t < 6.0) ? 30.0 : 0.0;
    return {5.0 + burst, 5.0 + 0.5 * burst, 5.0 + 0.25 * burst};
}

/** One exchange step: hub polls + ingests a sample, phone polls. */
void
step(HubRuntime &hub, core::SidewinderSensorManager &manager,
     std::size_t i)
{
    const double t = static_cast<double>(i) * kSamplePeriod;
    hub.pollLink(t);
    hub.pushSamples(sampleAt(i), t);
    manager.poll(t);
}

il::ExecutionPlan
lowerIl(const std::string &text)
{
    return il::lower(il::parse(text), core::accelerometerChannels());
}

// ---------------------------------------------------------------------
// The fault-free A/B swap.

TEST(HubReconfig, FaultFreeSwapCommitsAndCountsOneBlindSample)
{
    transport::LinkPair link(115200.0);
    HubRuntime hub(link, core::accelerometerChannels(), msp430());
    core::SidewinderSensorManager manager(
        link, core::accelerometerChannels());

    Recorder listener;
    const int id = manager.push(motionPipeline(15), &listener, 0.0);
    for (std::size_t i = 0; i < 100; ++i)
        step(hub, manager, i);
    ASSERT_EQ(manager.state(id), core::ConditionState::Active);
    ASSERT_EQ(hub.configEpoch(), 0u);

    // Retune the threshold mid-run. The update travels as a delta
    // (only the threshold node and OUT ship) and commits atomically.
    const std::uint32_t epoch = manager.beginUpdate(2.0);
    manager.updateCondition(id, motionPipeline(12), 2.0);
    manager.commitUpdate(2.0);
    for (std::size_t i = 100; i < 200; ++i)
        step(hub, manager, i);

    EXPECT_FALSE(manager.updateInProgress());
    EXPECT_FALSE(hub.updateInProgress());
    EXPECT_EQ(manager.configEpoch(), epoch);
    EXPECT_EQ(hub.configEpoch(), epoch);
    EXPECT_EQ(hub.updatesCommitted(), 1u);
    EXPECT_EQ(hub.updatesRolledBack(), 0u);
    EXPECT_EQ(manager.reconfigStats().updatesCommitted, 1u);

    // Zero dropped samples: the swap lands between two waves, so the
    // measured blind window is exactly one sample period.
    EXPECT_NEAR(hub.lastBlindWindowSeconds(), kSamplePeriod, 1e-9);

    // The delta genuinely beat a full push on the wire.
    const auto &stats = manager.reconfigStats();
    EXPECT_GT(stats.nodesReused, 0u);
    EXPECT_LT(stats.deltaWireBytes, stats.fullPushWireBytes);
}

TEST(HubReconfig, UnchangedSubgraphWakesBitIdenticalAcrossSwap)
{
    // Two runs over the same samples: one never reconfigures, one
    // retunes the *other* condition's threshold mid-run. The
    // untouched condition shares its smoothing prefix with the
    // updated one, so any state reset during the swap would perturb
    // its wake events. They must match bit for bit.
    auto run = [](bool reconfigure) {
        transport::LinkPair link(115200.0);
        HubRuntime hub(link, core::accelerometerChannels(), msp430());
        // The untouched condition fires on every wave; without
        // coalescing the raw-data wake frames saturate the 115200-baud
        // downlink and the commit ack never drains to the phone.
        hub.setWakeCoalescing(0.5);
        core::SidewinderSensorManager manager(
            link, core::accelerometerChannels());

        Recorder untouched;
        Recorder retuned;
        const int keep = manager.push(rangePipeline(), &untouched, 0.0);
        const int tune = manager.push(motionPipeline(15), &retuned, 0.0);
        (void)keep;
        for (std::size_t i = 0; i < 150; ++i)
            step(hub, manager, i);
        if (reconfigure) {
            manager.beginUpdate(3.0);
            manager.updateCondition(tune, motionPipeline(20), 3.0);
            manager.commitUpdate(3.0);
        }
        for (std::size_t i = 150; i < 400; ++i)
            step(hub, manager, i);
        if (reconfigure) {
            EXPECT_EQ(manager.reconfigStats().updatesCommitted, 1u);
            EXPECT_EQ(hub.updatesCommitted(), 1u);
        }
        return std::make_pair(untouched.timestamps, untouched.values);
    };

    const auto baseline = run(false);
    const auto swapped = run(true);
    EXPECT_EQ(baseline.first, swapped.first);
    EXPECT_EQ(baseline.second, swapped.second);
}

TEST(HubReconfig, ThresholdChangeTakesEffectAfterSwap)
{
    transport::LinkPair link(115200.0);
    HubRuntime hub(link, core::accelerometerChannels(), msp430());
    core::SidewinderSensorManager manager(
        link, core::accelerometerChannels());

    // Threshold 100 never fires on this trace; 10 fires during the
    // burst. Updating 100 -> 10 before the burst means every wake
    // observed is proof the B plan went live.
    Recorder listener;
    const int id = manager.push(motionPipeline(100), &listener, 0.0);
    for (std::size_t i = 0; i < 100; ++i)
        step(hub, manager, i);
    ASSERT_TRUE(listener.timestamps.empty());

    manager.beginUpdate(2.0);
    manager.updateCondition(id, motionPipeline(10), 2.0);
    manager.commitUpdate(2.0);
    for (std::size_t i = 100; i < 400; ++i)
        step(hub, manager, i);

    EXPECT_EQ(manager.reconfigStats().updatesCommitted, 1u);
    EXPECT_FALSE(listener.timestamps.empty());
    // And every wake postdates the commit.
    EXPECT_GE(listener.timestamps.front(), 2.0);
}

// ---------------------------------------------------------------------
// Rollback paths. These drive the hub's wire protocol directly so the
// staged payloads can be made invalid in ways the manager's local
// validation would never let through.

const char *motionIl = "ACC_X -> movingAvg(id=1, params={10});\n"
                       "ACC_Y -> movingAvg(id=2, params={10});\n"
                       "ACC_Z -> movingAvg(id=3, params={10});\n"
                       "1,2,3 -> vectorMagnitude(id=4);\n"
                       "4 -> minThreshold(id=5, params={15});\n"
                       "5 -> OUT;\n";

std::vector<transport::Frame>
drainHub(transport::LinkPair &link, double now)
{
    transport::FrameDecoder decoder;
    decoder.feed(link.hubToPhone().receive(now));
    std::vector<transport::Frame> frames;
    while (auto frame = decoder.poll())
        frames.push_back(*frame);
    return frames;
}

TEST(HubReconfig, StaleHashReferenceRollsBackAtCommit)
{
    transport::LinkPair link(115200.0);
    HubRuntime hub(link, core::accelerometerChannels(), msp430());

    link.phoneToHub().sendFrame(
        transport::encodeConfigPush({1, motionIl}), 0.0);
    hub.pollLink(0.1);
    (void)drainHub(link, 0.2);

    // A delta referencing a shareKey hash that is not live (the
    // phone's view of the hub was stale) must fail staging and roll
    // back at commit.
    transport::DeltaPushMessage delta;
    delta.epoch = 1;
    delta.conditionId = 1;
    transport::DeltaNodeEntry bogus;
    bogus.reused = true;
    bogus.keyHash = 0xDEADBEEFDEADBEEFull;
    delta.entries.push_back(bogus);
    delta.outEntry = 0;
    link.phoneToHub().sendFrame(transport::encodeUpdateBegin({1}), 1.0);
    link.phoneToHub().sendFrame(transport::encodeDeltaPush(delta), 1.0);
    link.phoneToHub().sendFrame(transport::encodeUpdateCommit({1}),
                                1.0);
    hub.pollLink(1.5);

    const auto frames = drainHub(link, 2.0);
    ASSERT_EQ(frames.size(), 1u);
    const auto ack = transport::decodeUpdateAck(frames[0]);
    EXPECT_EQ(ack.status, transport::UpdateStatus::RolledBack);
    EXPECT_NE(ack.reason.find("stale shareKey hash"),
              std::string::npos);
    EXPECT_EQ(hub.configEpoch(), 0u);
    EXPECT_EQ(hub.updatesRolledBack(), 1u);
    EXPECT_EQ(hub.engine().stagedCount(), 0u);
    EXPECT_TRUE(hub.engine().hasCondition(1)); // A plan intact
}

TEST(HubReconfig, AnalyzerRejectionRollsBackAtCommit)
{
    transport::LinkPair link(115200.0);
    HubRuntime hub(link, core::accelerometerChannels(), msp430());

    // A structurally valid delta whose spliced program fails the
    // static analyzer (unknown algorithm) must never reach commit.
    transport::DeltaPushMessage delta;
    delta.epoch = 1;
    delta.conditionId = 1;
    delta.channelNames.push_back("ACC_X");
    transport::DeltaNodeEntry entry;
    entry.reused = false;
    entry.algorithm = "definitelyNotAnAlgorithm";
    entry.inputs.push_back(-1);
    delta.entries.push_back(entry);
    delta.outEntry = 0;
    link.phoneToHub().sendFrame(transport::encodeUpdateBegin({1}), 0.0);
    link.phoneToHub().sendFrame(transport::encodeDeltaPush(delta), 0.0);
    link.phoneToHub().sendFrame(transport::encodeUpdateCommit({1}),
                                0.0);
    hub.pollLink(0.5);

    const auto frames = drainHub(link, 1.0);
    ASSERT_EQ(frames.size(), 1u);
    const auto ack = transport::decodeUpdateAck(frames[0]);
    EXPECT_EQ(ack.status, transport::UpdateStatus::RolledBack);
    EXPECT_TRUE(
        ack.reason.starts_with("static analysis rejected the update: ["))
        << ack.reason;
    EXPECT_EQ(hub.configEpoch(), 0u);
    EXPECT_EQ(hub.engine().stagedCount(), 0u);
}

/** ACC_X -> window(@p size) -> mean -> minThreshold(1) -> OUT. */
core::ProcessingPipeline
windowMeanPipeline(int size)
{
    core::ProcessingBranch branch(core::channel::accelerometerX);
    branch.add(core::Window(size));
    branch.add(core::Mean());
    core::ProcessingPipeline pipeline;
    pipeline.add(std::move(branch));
    pipeline.add(core::MinThreshold(1.0));
    return pipeline;
}

TEST(HubReconfig, RamOverflowDuringTheAbWindowRollsBackAtCommit)
{
    transport::LinkPair link(115200.0);
    HubRuntime hub(link, core::accelerometerChannels(), msp430());
    core::SidewinderSensorManager manager(
        link, core::accelerometerChannels());

    // A 2048-sample window fits the MSP430's RAM on its own...
    Recorder listener;
    const int id =
        manager.push(windowMeanPipeline(2048), &listener, 0.0);
    for (std::size_t i = 0; i < 50; ++i)
        step(hub, manager, i);
    ASSERT_EQ(manager.state(id), core::ConditionState::Active);
    const std::size_t live = hub.engine().estimatedRamBytes();
    EXPECT_EQ(live, 8312u);

    // ...but a slightly larger one shares no node with it, and both
    // copies hold their state until the swap.
    manager.beginUpdate(1.0);
    manager.updateCondition(id, windowMeanPipeline(2100), 1.0);
    manager.commitUpdate(1.0);
    for (std::size_t i = 50; i < 100; ++i)
        step(hub, manager, i);

    const std::size_t staged =
        il::lower(windowMeanPipeline(2100).compile(),
                  core::accelerometerChannels())
            .cost()
            .ramBytes;
    ASSERT_LE(staged, msp430().ramBytes);
    EXPECT_EQ(manager.lastUpdateError(),
              "update needs " + std::to_string(live + staged) +
                  " bytes of hub RAM during the A/B window; MSP430 "
                  "has 16384");
    EXPECT_EQ(hub.updatesRolledBack(), 1u);
    EXPECT_EQ(hub.configEpoch(), 0u);
    EXPECT_EQ(hub.engine().stagedCount(), 0u);
    // The live plan keeps running.
    EXPECT_TRUE(hub.engine().hasCondition(id));
    EXPECT_EQ(hub.engine().estimatedRamBytes(), live);
}

TEST(HubReconfig, StalledTransferRollsBackAndFreesShadowSlot)
{
    transport::LinkPair link(115200.0);
    HubRuntime hub(link, core::accelerometerChannels(), msp430());

    link.phoneToHub().sendFrame(
        transport::encodeConfigPush({1, motionIl}), 0.0);
    hub.pollLink(0.1);
    (void)drainHub(link, 0.2);

    // A valid begin + delta, then silence: the phone died mid-update.
    const il::ExecutionPlan plan = lowerIl(motionIl);
    const auto delta = buildDeltaPush(
        plan, il::computeDelta(plan, {}), /*epoch=*/1,
        /*condition_id=*/1);
    link.phoneToHub().sendFrame(transport::encodeUpdateBegin({1}), 1.0);
    link.phoneToHub().sendFrame(transport::encodeDeltaPush(delta), 1.0);
    hub.pollLink(1.2);
    EXPECT_TRUE(hub.updateInProgress());
    EXPECT_EQ(hub.engine().stagedCount(), 1u);

    // The hub waits out 5 s of silence after the last frame (received
    // at 1.2), then must reclaim the shadow slot.
    hub.pollLink(6.1);
    EXPECT_TRUE(hub.updateInProgress());
    hub.pollLink(6.3);
    EXPECT_FALSE(hub.updateInProgress());
    EXPECT_EQ(hub.engine().stagedCount(), 0u);
    EXPECT_EQ(hub.updatesRolledBack(), 1u);
    EXPECT_EQ(hub.configEpoch(), 0u);
    EXPECT_TRUE(hub.engine().hasCondition(1));

    const auto frames = drainHub(link, 7.5);
    ASSERT_EQ(frames.size(), 1u);
    const auto ack = transport::decodeUpdateAck(frames[0]);
    EXPECT_EQ(ack.status, transport::UpdateStatus::RolledBack);
    EXPECT_NE(ack.reason.find("stalled"), std::string::npos);
}

TEST(HubReconfig, SupersededEpochsAreRefusedAndCounted)
{
    transport::LinkPair link(115200.0);
    HubRuntime hub(link, core::accelerometerChannels(), msp430());

    // Commit epoch 5 through the full protocol.
    const il::ExecutionPlan plan = lowerIl(motionIl);
    const auto delta =
        buildDeltaPush(plan, il::computeDelta(plan, {}), 5, 1);
    link.phoneToHub().sendFrame(transport::encodeUpdateBegin({5}), 0.0);
    link.phoneToHub().sendFrame(transport::encodeDeltaPush(delta), 0.0);
    link.phoneToHub().sendFrame(transport::encodeUpdateCommit({5}),
                                0.0);
    hub.pollLink(0.5);
    auto frames = drainHub(link, 1.0);
    ASSERT_EQ(frames.size(), 1u);
    ASSERT_EQ(transport::decodeUpdateAck(frames[0]).status,
              transport::UpdateStatus::Committed);
    ASSERT_EQ(hub.configEpoch(), 5u);

    // A begin for an older epoch is answered Stale, not staged.
    link.phoneToHub().sendFrame(transport::encodeUpdateBegin({3}), 2.0);
    hub.pollLink(2.1);
    frames = drainHub(link, 3.0);
    ASSERT_EQ(frames.size(), 1u);
    EXPECT_EQ(transport::decodeUpdateAck(frames[0]).status,
              transport::UpdateStatus::Stale);
    EXPECT_EQ(hub.staleEpochMessages(), 1u);
    EXPECT_FALSE(hub.updateInProgress());

    // A duplicate commit of the live epoch re-acks Committed
    // (idempotent), with no second swap.
    link.phoneToHub().sendFrame(transport::encodeUpdateCommit({5}),
                                3.0);
    hub.pollLink(3.1);
    frames = drainHub(link, 4.0);
    ASSERT_EQ(frames.size(), 1u);
    EXPECT_EQ(transport::decodeUpdateAck(frames[0]).status,
              transport::UpdateStatus::Committed);
    EXPECT_EQ(hub.updatesCommitted(), 1u);
}

TEST(HubReconfig, AbortFromPhoneFreesShadowSlot)
{
    transport::LinkPair link(115200.0);
    HubRuntime hub(link, core::accelerometerChannels(), msp430());

    const il::ExecutionPlan plan = lowerIl(motionIl);
    const auto delta =
        buildDeltaPush(plan, il::computeDelta(plan, {}), 1, 1);
    link.phoneToHub().sendFrame(transport::encodeUpdateBegin({1}), 0.0);
    link.phoneToHub().sendFrame(transport::encodeDeltaPush(delta), 0.0);
    link.phoneToHub().sendFrame(transport::encodeUpdateAbort({1}), 0.0);
    hub.pollLink(0.5);

    EXPECT_FALSE(hub.updateInProgress());
    EXPECT_EQ(hub.engine().stagedCount(), 0u);
    EXPECT_EQ(hub.updatesRolledBack(), 1u);
    const auto frames = drainHub(link, 1.0);
    ASSERT_EQ(frames.size(), 1u);
    EXPECT_EQ(transport::decodeUpdateAck(frames[0]).status,
              transport::UpdateStatus::RolledBack);
}

// ---------------------------------------------------------------------
// Delta codec and splice mechanics.

TEST(HubReconfig, DeltaPushCodecRoundtrips)
{
    transport::DeltaPushMessage message;
    message.epoch = 7;
    message.conditionId = 3;
    message.channelNames = {"ACC_X", "ACC_Y"};
    transport::DeltaNodeEntry reused;
    reused.reused = true;
    reused.keyHash = 0x0123456789ABCDEFull;
    transport::DeltaNodeEntry shipped;
    shipped.algorithm = "minThreshold";
    shipped.params = {12.5};
    shipped.inputs = {0, -2};
    message.entries = {reused, shipped};
    message.outEntry = 1;

    const auto decoded =
        transport::decodeDeltaPush(transport::encodeDeltaPush(message));
    EXPECT_EQ(decoded.epoch, message.epoch);
    EXPECT_EQ(decoded.conditionId, message.conditionId);
    EXPECT_EQ(decoded.channelNames, message.channelNames);
    EXPECT_EQ(decoded.entries, message.entries);
    EXPECT_EQ(decoded.outEntry, message.outEntry);
}

TEST(HubReconfig, ForwardEntryReferenceIsRejected)
{
    transport::DeltaPushMessage message;
    message.epoch = 1;
    message.conditionId = 1;
    transport::DeltaNodeEntry entry;
    entry.algorithm = "minThreshold";
    entry.params = {1.0};
    entry.inputs = {0}; // refers to itself: a forward reference
    message.entries = {entry};
    message.outEntry = 0;
    EXPECT_THROW(
        transport::decodeDeltaPush(transport::encodeDeltaPush(message)),
        TransportError);
}

TEST(HubReconfig, SpliceReproducesCanonicalShareKeys)
{
    // Install the plan, then splice a delta that reuses everything:
    // re-lowering the spliced program must land on identical
    // shareKeys — the property that makes staging hash-cons onto the
    // live nodes (state and all).
    transport::LinkPair link(115200.0);
    HubRuntime hub(link, core::accelerometerChannels(), msp430());
    link.phoneToHub().sendFrame(
        transport::encodeConfigPush({1, motionIl}), 0.0);
    hub.pollLink(0.1);
    (void)drainHub(link, 0.2);

    const il::ExecutionPlan plan = lowerIl(motionIl);
    const std::unordered_set<std::string> live(plan.shareKeys.begin(),
                                               plan.shareKeys.end());
    const auto message =
        buildDeltaPush(plan, il::computeDelta(plan, live), 1, 1);
    const il::Program spliced =
        spliceDeltaProgram(message, hub.engine());
    const il::ExecutionPlan replan =
        il::lower(spliced, core::accelerometerChannels());
    // Node order may differ (the splice emits depth-first); the key
    // *set* is what hash-consing matches on.
    std::vector<std::string> expected = plan.shareKeys;
    std::vector<std::string> actual = replan.shareKeys;
    std::sort(expected.begin(), expected.end());
    std::sort(actual.begin(), actual.end());
    EXPECT_EQ(actual, expected);
}

// ---------------------------------------------------------------------
// Golden corpus for `swlint --diff-plan` (tests/data/deltas/): each
// <name>.old.il / <name>.new.il pair pins renderDiffPlan output in
// <name>.diff. Regenerate with SW_UPDATE_GOLDENS=1.

std::filesystem::path
deltasDir()
{
    return std::filesystem::path(SW_TEST_DATA_DIR) / "deltas";
}

std::string
readFile(const std::filesystem::path &path)
{
    std::ifstream in(path);
    EXPECT_TRUE(in) << path;
    std::ostringstream text;
    text << in.rdbuf();
    return text.str();
}

TEST(DiffPlanGoldens, CorpusMatchesPinnedRenderings)
{
    const bool update = std::getenv("SW_UPDATE_GOLDENS") != nullptr;
    std::vector<std::filesystem::path> olds;
    for (const auto &entry :
         std::filesystem::directory_iterator(deltasDir())) {
        const auto name = entry.path().filename().string();
        if (name.size() > 7 &&
            name.compare(name.size() - 7, 7, ".old.il") == 0)
            olds.push_back(entry.path());
    }
    std::sort(olds.begin(), olds.end());
    ASSERT_GE(olds.size(), 3u) << "delta corpus went missing";

    for (const auto &old_path : olds) {
        auto new_path = old_path;
        new_path.replace_extension().replace_extension(); // strip .old.il
        auto diff_path = new_path;
        new_path += ".new.il";
        diff_path += ".diff";

        const std::string rendered = renderDiffPlan(
            lowerIl(readFile(old_path)), lowerIl(readFile(new_path)));
        if (update) {
            std::ofstream out(diff_path);
            out << rendered;
            continue;
        }
        EXPECT_EQ(rendered, readFile(diff_path)) << old_path;
    }
}

TEST(DiffPlanGoldens, ThresholdRetuneShipsOnlyTheThreshold)
{
    const auto dir = deltasDir();
    const il::ExecutionPlan old_plan =
        lowerIl(readFile(dir / "threshold_retune.old.il"));
    const il::ExecutionPlan new_plan =
        lowerIl(readFile(dir / "threshold_retune.new.il"));
    const std::unordered_set<std::string> live(
        old_plan.shareKeys.begin(), old_plan.shareKeys.end());
    const il::PlanDelta delta = il::computeDelta(new_plan, live);
    EXPECT_EQ(delta.shippedNodes.size(), 1u);
    EXPECT_EQ(new_plan.shareKeys[delta.shippedNodes[0]].rfind(
                  "minThreshold", 0),
              0u);
}

} // namespace
} // namespace sidewinder::hub
