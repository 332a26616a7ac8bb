/**
 * @file
 * Tests for the fault-tolerance layer around the hub: heartbeat
 * beacons with boot epochs, brownout resets that drop engine state,
 * idempotent config re-pushes, and the phone-side supervisor's
 * death-detection / recovery loop (docs/fault-model.md).
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "core/algorithm.h"
#include "core/pipeline.h"
#include "core/sensor_manager.h"
#include "core/sensors.h"
#include "hub/mcu.h"
#include "hub/runtime.h"
#include "transport/link.h"
#include "transport/messages.h"
#include "transport/reliable.h"

namespace sidewinder::hub {
namespace {

const char *motionIl = "ACC_X -> movingAvg(id=1, params={10});\n"
                       "ACC_Y -> movingAvg(id=2, params={10});\n"
                       "ACC_Z -> movingAvg(id=3, params={10});\n"
                       "1,2,3 -> vectorMagnitude(id=4);\n"
                       "4 -> minThreshold(id=5, params={15});\n"
                       "5 -> OUT;\n";

/** The Figure 2a pipeline, the supervisor's re-push guinea pig. */
core::ProcessingPipeline
motionPipeline()
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
    pipeline.add(core::MinThreshold(15));
    return pipeline;
}

/** Drain and decode all frames on the hub-to-phone direction. */
std::vector<transport::Frame>
phoneSideFrames(transport::LinkPair &link, double now)
{
    transport::FrameDecoder decoder;
    decoder.feed(link.hubToPhone().receive(now));
    std::vector<transport::Frame> frames;
    while (auto frame = decoder.poll())
        frames.push_back(*frame);
    return frames;
}

/** Records wake-up callbacks for assertions. */
class Recorder : public core::SensorEventListener
{
  public:
    void
    onSensorEvent(const core::SensorData &data) override
    {
        events.push_back(data);
    }
    std::vector<core::SensorData> events;
};

/** Step hub and manager together from @p from to @p to. */
void
driveBoth(HubRuntime &hub, core::SidewinderSensorManager &manager,
          double from, double to, double step = 0.05)
{
    for (double t = from; t <= to + 1e-9; t += step) {
        hub.pollLink(t);
        manager.poll(t);
    }
}

TEST(HubSupervision, HeartbeatCarriesBootEpoch)
{
    transport::LinkPair link(115200.0);
    HubRuntime hub(link, core::accelerometerChannels(), msp430());
    hub.enableHeartbeats(0.5);

    hub.pollLink(0.0);
    auto frames = phoneSideFrames(link, 1.0);
    ASSERT_EQ(frames.size(), 1u);
    ASSERT_EQ(frames[0].type, transport::MessageType::Heartbeat);
    auto beat = transport::decodeHeartbeat(frames[0]);
    EXPECT_EQ(beat.bootId, 0u);

    // Beacons respect the interval: nothing new 0.2 s later, one more
    // after the full interval elapses.
    hub.pollLink(0.2);
    EXPECT_TRUE(phoneSideFrames(link, 1.0).empty());
    hub.pollLink(0.6);
    ASSERT_EQ(phoneSideFrames(link, 2.0).size(), 1u);

    hub.reboot(10.0);
    EXPECT_EQ(hub.bootId(), 1u);
    hub.pollLink(10.1);
    frames = phoneSideFrames(link, 11.0);
    ASSERT_EQ(frames.size(), 1u);
    beat = transport::decodeHeartbeat(frames[0]);
    EXPECT_EQ(beat.bootId, 1u);
    EXPECT_LT(beat.uptimeSeconds, 1.0); // uptime restarted at reboot
}

TEST(HubSupervision, RebootDropsAllEngineState)
{
    transport::LinkPair link(115200.0);
    HubRuntime hub(link, core::accelerometerChannels(), msp430());

    link.phoneToHub().sendFrame(
        transport::encodeConfigPush({7, motionIl}), 0.0);
    hub.pollLink(1.0);
    (void)phoneSideFrames(link, 2.0); // ack
    ASSERT_TRUE(hub.engine().hasCondition(7));

    hub.reboot(5.0);
    EXPECT_FALSE(hub.engine().hasCondition(7));

    // The amnesiac hub rejects a remove for the forgotten condition.
    link.phoneToHub().sendFrame(transport::encodeConfigRemove({7}),
                                5.0);
    hub.pollLink(6.0);
    const auto frames = phoneSideFrames(link, 7.0);
    ASSERT_EQ(frames.size(), 1u);
    EXPECT_EQ(frames[0].type, transport::MessageType::ConfigReject);
}

TEST(HubSupervision, RepushedConfigIsIdempotent)
{
    transport::LinkPair link(115200.0);
    HubRuntime hub(link, core::accelerometerChannels(), msp430());

    // The same push twice — a late retransmit or a supervisor re-push
    // racing an intact install — must ack both times, not reject or
    // double-install.
    link.phoneToHub().sendFrame(
        transport::encodeConfigPush({7, motionIl}), 0.0);
    hub.pollLink(1.0);
    link.phoneToHub().sendFrame(
        transport::encodeConfigPush({7, motionIl}), 1.0);
    hub.pollLink(2.0);

    const auto frames = phoneSideFrames(link, 3.0);
    ASSERT_EQ(frames.size(), 2u);
    EXPECT_EQ(frames[0].type, transport::MessageType::ConfigAck);
    EXPECT_EQ(frames[1].type, transport::MessageType::ConfigAck);
    EXPECT_TRUE(hub.engine().hasCondition(7));
}

TEST(HubSupervision, ManagerDetectsDeathAndRecovers)
{
    transport::LinkPair link(115200.0);
    HubRuntime hub(link, core::accelerometerChannels(), msp430());
    hub.enableReliableTransport();
    hub.enableHeartbeats(0.5);

    core::SidewinderSensorManager manager(
        link, core::accelerometerChannels());
    manager.enableReliableTransport();
    manager.enableSupervision({0.5, 3.0}, 0.0);

    Recorder listener;
    const int id = manager.push(motionPipeline(), &listener, 0.0);
    driveBoth(hub, manager, 0.05, 5.0);
    ASSERT_EQ(manager.state(id), core::ConditionState::Active);
    EXPECT_FALSE(manager.hubDown());

    // Brownout: the hub goes dark at t=5. Bytes the phone sends reach
    // a dead receiver; after three silent beacon intervals the
    // supervisor must declare the hub down.
    for (double t = 5.05; t <= 10.0 + 1e-9; t += 0.05) {
        (void)link.phoneToHub().receive(t);
        manager.poll(t);
    }
    EXPECT_TRUE(manager.hubDown());
    EXPECT_EQ(manager.supervisionStats().hubDeathsDetected, 1u);
    EXPECT_GT(manager.hubDownSeconds(10.0), 3.0);

    // Power returns: the hub reboots with empty state, its next
    // beacon carries a new boot epoch, and the supervisor re-pushes
    // the shadow copy until the condition is Active again.
    hub.reboot(10.0);
    ASSERT_FALSE(hub.engine().hasCondition(id));
    driveBoth(hub, manager, 10.05, 15.0);

    EXPECT_FALSE(manager.hubDown());
    EXPECT_EQ(manager.state(id), core::ConditionState::Active);
    EXPECT_TRUE(hub.engine().hasCondition(id));
    EXPECT_GE(manager.supervisionStats().rebootsDetected, 1u);
    EXPECT_GE(manager.supervisionStats().repushedConditions, 1u);
    ASSERT_EQ(manager.downWindows().size(), 1u);
    EXPECT_NEAR(manager.downWindows()[0].first, 6.5, 0.5);
    // The closed window no longer grows.
    EXPECT_DOUBLE_EQ(manager.hubDownSeconds(20.0),
                     manager.hubDownSeconds(15.0));
}

TEST(HubSupervision, BrownoutBetweenStageAndCommitRollsBackAndRecovers)
{
    transport::LinkPair link(115200.0);
    HubRuntime hub(link, core::accelerometerChannels(), msp430());
    hub.enableReliableTransport();
    hub.enableHeartbeats(0.5);

    core::SidewinderSensorManager manager(
        link, core::accelerometerChannels());
    manager.enableReliableTransport();
    manager.enableSupervision({0.5, 3.0}, 0.0);

    Recorder listener;
    const int id = manager.push(motionPipeline(), &listener, 0.0);
    driveBoth(hub, manager, 0.05, 3.0);
    ASSERT_EQ(manager.state(id), core::ConditionState::Active);

    // Stage a retuned replacement: the delta reaches the hub's shadow
    // slot but the commit has not been sent yet.
    core::ProcessingPipeline retuned = motionPipeline();
    retuned.add(core::MinThreshold(20)); // deeper variant, same prefix
    manager.beginUpdate(3.0);
    manager.updateCondition(id, retuned, 3.0);
    driveBoth(hub, manager, 3.05, 4.0);
    ASSERT_TRUE(hub.updateInProgress());
    ASSERT_EQ(hub.engine().stagedCount(), 1u);

    // Brownout exactly between stage and commit: the staged B plan
    // lives in hub RAM only, so power loss erases it. The commit the
    // phone then sends reaches an amnesiac hub.
    hub.reboot(4.0);
    manager.commitUpdate(4.0);
    driveBoth(hub, manager, 4.05, 10.0);

    // Whichever signal arrives first — the hub's "no open update
    // transaction" rollback ack or the reboot-epoch heartbeat — the
    // phone must conclude the update died, keep its shadow copy, and
    // let the supervisor re-install the A plan.
    EXPECT_FALSE(manager.updateInProgress());
    EXPECT_EQ(manager.reconfigStats().updatesCommitted, 0u);
    EXPECT_EQ(manager.reconfigStats().updatesRolledBack, 1u);
    EXPECT_FALSE(manager.lastUpdateError().empty());
    EXPECT_EQ(manager.state(id), core::ConditionState::Active);
    EXPECT_TRUE(hub.engine().hasCondition(id));
    EXPECT_EQ(hub.engine().stagedCount(), 0u);
    EXPECT_FALSE(hub.updateInProgress());
    EXPECT_EQ(hub.configEpoch(), 0u); // nothing ever committed
    EXPECT_GE(manager.supervisionStats().rebootsDetected, 1u);

    // The retry under a fresh epoch goes through cleanly.
    manager.beginUpdate(10.0);
    manager.updateCondition(id, retuned, 10.0);
    manager.commitUpdate(10.0);
    driveBoth(hub, manager, 10.05, 13.0);
    EXPECT_FALSE(manager.updateInProgress());
    EXPECT_EQ(manager.reconfigStats().updatesCommitted, 1u);
    EXPECT_EQ(hub.configEpoch(), manager.configEpoch());
    EXPECT_GT(hub.configEpoch(), 0u);
}

TEST(HubSupervision, WakeUpsFlowThroughReliableTransport)
{
    transport::LinkPair link(1e6);
    HubRuntime hub(link, core::accelerometerChannels(), msp430());
    hub.enableReliableTransport();

    core::SidewinderSensorManager manager(
        link, core::accelerometerChannels());
    manager.enableReliableTransport();

    Recorder listener;
    const int id = manager.push(motionPipeline(), &listener, 0.0);
    driveBoth(hub, manager, 0.05, 2.0);
    ASSERT_EQ(manager.state(id), core::ConditionState::Active);

    for (int i = 0; i < 10; ++i)
        hub.pushSamples({20.0, 20.0, 20.0}, 2.0 + i * 0.02);
    driveBoth(hub, manager, 2.25, 4.0);

    ASSERT_FALSE(listener.events.empty());
    EXPECT_GE(listener.events[0].triggerValue, 15.0);
    EXPECT_EQ(listener.events[0].conditionId, id);
    // The wake-up travelled as reliable data and was acked.
    ASSERT_NE(hub.reliableStats(), nullptr);
    EXPECT_GE(hub.reliableStats()->framesSent, 1u);
    EXPECT_GE(hub.reliableStats()->acksReceived, 1u);
    EXPECT_EQ(hub.reliableStats()->framesLost, 0u);
}

TEST(HubSupervision, HugeCountIsRejectedAndTheHubKeepsRunning)
{
    // A well-formed ConfigPush whose count no kernel can hold. The
    // hub refuses it at admission and keeps ingesting.
    transport::LinkPair link(115200.0);
    HubRuntime hub(link, core::accelerometerChannels(), msp430());
    link.phoneToHub().sendFrame(
        transport::encodeConfigPush(
            {3, "ACC_X -> consecutive(id=1, params={1e300});\n"
                "1 -> OUT;\n"}),
        0.0);
    hub.pollLink(1.0);

    const auto frames = phoneSideFrames(link, 2.0);
    ASSERT_EQ(frames.size(), 1u);
    ASSERT_EQ(frames[0].type, transport::MessageType::ConfigReject);
    const auto reject = transport::decodeConfigReject(frames[0]);
    EXPECT_NE(reject.reason.find("[SW009]"), std::string::npos)
        << reject.reason;
    EXPECT_FALSE(hub.engine().hasCondition(3));

    for (int i = 0; i < 100; ++i)
        hub.pushSamples({20.0, 20.0, 20.0}, 2.0 + i * 0.02);
    hub.pollLink(5.0);
    EXPECT_TRUE(phoneSideFrames(link, 6.0).empty());
}

TEST(HubSupervision, HostileCountsAreDroppedWithoutThrowing)
{
    // A CRC-valid frame can still carry garbage, here a count of
    // 0xFFFFFFFF items. Each poller drops it as undecodable, without
    // an exception, and still handles the frame behind it.
    transport::LinkPair link(115200.0);
    HubRuntime hub(link, core::accelerometerChannels(), msp430());
    core::SidewinderSensorManager manager(
        link, core::accelerometerChannels());
    Recorder listener;
    const int id = manager.push(motionPipeline(), &listener, 0.0);
    driveBoth(hub, manager, 0.05, 1.0);
    ASSERT_EQ(manager.state(id), core::ConditionState::Active);
    ASSERT_TRUE(hub.engine().hasCondition(id));

    auto wake = transport::encodeWakeUp({id, 1.5, 20.0, {}});
    // The sample count follows the id, timestamp and trigger value.
    std::fill(wake.payload.begin() + 4 + 8 + 8, wake.payload.end(), 0xFF);
    link.hubToPhone().sendFrame(wake, 1.1);
    link.hubToPhone().sendFrame(
        transport::encodeWakeUp({id, 1.6, 21.0, {1.0, 2.0}}), 1.1);
    EXPECT_NO_THROW(manager.poll(1.2));
    ASSERT_EQ(listener.events.size(), 1u);
    EXPECT_EQ(listener.events[0].timestamp, 1.6);
    EXPECT_EQ(listener.events[0].rawData,
              (std::vector<double>{1.0, 2.0}));

    // A DeltaPush (epoch 1, this condition) whose channel count no
    // payload could hold, then a removal the hub must still carry out.
    transport::Frame delta{transport::MessageType::DeltaPush,
                           {1, 0, 0, 0, static_cast<std::uint8_t>(id), 0,
                            0, 0, 0xFF, 0xFF, 0xFF, 0xFF}};
    link.phoneToHub().sendFrame(delta, 1.1);
    link.phoneToHub().sendFrame(transport::encodeConfigRemove({id}), 1.1);
    EXPECT_NO_THROW(hub.pollLink(1.2));
    EXPECT_FALSE(hub.updateInProgress());
    EXPECT_FALSE(hub.engine().hasCondition(id));
}

} // namespace
} // namespace sidewinder::hub
