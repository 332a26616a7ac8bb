/**
 * @file
 * Integration tests for the hub message loop over the simulated UART:
 * config push/ack/reject, removal, capability gating, wake-up frames.
 */

#include <gtest/gtest.h>

#include "hub/mcu.h"
#include "hub/runtime.h"
#include "il/lower.h"
#include "il/parser.h"
#include "transport/link.h"
#include "transport/messages.h"

namespace sidewinder::hub {
namespace {

std::vector<il::ChannelInfo>
accelChannels()
{
    return {{"ACC_X", 50.0}, {"ACC_Y", 50.0}, {"ACC_Z", 50.0}};
}

const char *motionIl = "ACC_X -> movingAvg(id=1, params={10});\n"
                       "ACC_Y -> movingAvg(id=2, params={10});\n"
                       "ACC_Z -> movingAvg(id=3, params={10});\n"
                       "1,2,3 -> vectorMagnitude(id=4);\n"
                       "4 -> minThreshold(id=5, params={15});\n"
                       "5 -> OUT;\n";

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

TEST(HubRuntime, AcksValidConfig)
{
    transport::LinkPair link(115200.0);
    HubRuntime hub(link, accelChannels(), msp430());

    link.phoneToHub().sendFrame(
        transport::encodeConfigPush({7, motionIl}), 0.0);
    hub.pollLink(1.0);

    const auto frames = phoneSideFrames(link, 2.0);
    ASSERT_EQ(frames.size(), 1u);
    EXPECT_EQ(frames[0].type, transport::MessageType::ConfigAck);
    EXPECT_EQ(transport::decodeConfigAck(frames[0]).conditionId, 7);
    EXPECT_TRUE(hub.engine().hasCondition(7));
}

TEST(HubRuntime, RejectsMalformedIl)
{
    transport::LinkPair link(115200.0);
    HubRuntime hub(link, accelChannels(), msp430());

    link.phoneToHub().sendFrame(
        transport::encodeConfigPush({3, "garbage -> !!"}), 0.0);
    hub.pollLink(1.0);

    const auto frames = phoneSideFrames(link, 2.0);
    ASSERT_EQ(frames.size(), 1u);
    EXPECT_EQ(frames[0].type, transport::MessageType::ConfigReject);
    EXPECT_FALSE(hub.engine().hasCondition(3));
}

TEST(HubRuntime, RejectsBeyondMcuCapability)
{
    transport::LinkPair link(115200.0);
    // Audio hub on the weak MSP430: an FFT pipeline must be refused.
    HubRuntime hub(link, {{"AUDIO", 4000.0}}, msp430());

    const char *siren_prefix =
        "AUDIO -> window(id=1, params={256});\n"
        "1 -> fft(id=2);\n"
        "2 -> spectrum(id=3);\n"
        "3 -> peakToMeanRatio(id=4);\n"
        "4 -> minThreshold(id=5, params={4});\n"
        "5 -> OUT;\n";
    link.phoneToHub().sendFrame(
        transport::encodeConfigPush({1, siren_prefix}), 0.0);
    hub.pollLink(1.0);

    const auto frames = phoneSideFrames(link, 2.0);
    ASSERT_EQ(frames.size(), 1u);
    EXPECT_EQ(frames[0].type, transport::MessageType::ConfigReject);
    const auto reject = transport::decodeConfigReject(frames[0]);
    // An empty engine: the load is the plan's own cost.
    const double needed =
        il::lower(il::parse(siren_prefix), {{"AUDIO", 4000.0}})
            .cost()
            .cyclesPerSecond;
    EXPECT_EQ(reject.reason,
              "condition needs " + std::to_string(needed) +
                  " cycle units/s; MSP430 sustains " +
                  std::to_string(msp430().cyclesPerSecond));
}

TEST(HubRuntime, AnalyzerRejectionNamesTheCondition)
{
    transport::LinkPair link(115200.0);
    HubRuntime hub(link, accelChannels(), msp430());

    link.phoneToHub().sendFrame(
        transport::encodeConfigPush(
            {4, "ACC_X -> bogus(id=1);\n1 -> OUT;\n"}),
        0.0);
    hub.pollLink(1.0);

    const auto frames = phoneSideFrames(link, 2.0);
    ASSERT_EQ(frames.size(), 1u);
    EXPECT_EQ(frames[0].type, transport::MessageType::ConfigReject);
    const auto reject = transport::decodeConfigReject(frames[0]);
    EXPECT_TRUE(reject.reason.starts_with(
        "static analysis rejected the condition: [SW"))
        << reject.reason;
    EXPECT_FALSE(hub.engine().hasCondition(4));
}

TEST(HubRuntime, SameConfigAcceptedOnStrongerMcu)
{
    transport::LinkPair link(115200.0);
    HubRuntime hub(link, {{"AUDIO", 4000.0}}, lm4f120());

    const char *fft_condition =
        "AUDIO -> window(id=1, params={256});\n"
        "1 -> fft(id=2);\n"
        "2 -> spectrum(id=3);\n"
        "3 -> peakToMeanRatio(id=4);\n"
        "4 -> minThreshold(id=5, params={4});\n"
        "5 -> OUT;\n";
    link.phoneToHub().sendFrame(
        transport::encodeConfigPush({1, fft_condition}), 0.0);
    hub.pollLink(1.0);

    const auto frames = phoneSideFrames(link, 2.0);
    ASSERT_EQ(frames.size(), 1u);
    EXPECT_EQ(frames[0].type, transport::MessageType::ConfigAck);
}

TEST(HubRuntime, WakeUpFrameCarriesRawData)
{
    transport::LinkPair link(1e6);
    HubRuntime hub(link, accelChannels(), msp430());

    link.phoneToHub().sendFrame(
        transport::encodeConfigPush({5, motionIl}), 0.0);
    hub.pollLink(1.0);
    (void)phoneSideFrames(link, 2.0); // consume the ack

    for (int i = 0; i < 10; ++i)
        hub.pushSamples({20.0, 20.0, 20.0}, 2.0 + i * 0.02);

    const auto frames = phoneSideFrames(link, 10.0);
    ASSERT_FALSE(frames.empty());
    EXPECT_EQ(frames[0].type, transport::MessageType::WakeUp);
    const auto wake = transport::decodeWakeUp(frames[0]);
    EXPECT_EQ(wake.conditionId, 5);
    EXPECT_GE(wake.triggerValue, 15.0);
    EXPECT_FALSE(wake.rawData.empty());
    EXPECT_DOUBLE_EQ(wake.rawData.back(), 20.0);
}

TEST(HubRuntime, RemoveStopsWakeUps)
{
    transport::LinkPair link(1e6);
    HubRuntime hub(link, accelChannels(), msp430());

    link.phoneToHub().sendFrame(
        transport::encodeConfigPush({5, motionIl}), 0.0);
    hub.pollLink(1.0);
    link.phoneToHub().sendFrame(transport::encodeConfigRemove({5}),
                                1.0);
    hub.pollLink(2.0);
    (void)phoneSideFrames(link, 3.0); // ack + ack

    for (int i = 0; i < 10; ++i)
        hub.pushSamples({20.0, 20.0, 20.0}, 3.0 + i * 0.02);
    EXPECT_TRUE(phoneSideFrames(link, 10.0).empty());
}

TEST(HubRuntime, RemoveUnknownConditionRejects)
{
    transport::LinkPair link(115200.0);
    HubRuntime hub(link, accelChannels(), msp430());
    link.phoneToHub().sendFrame(transport::encodeConfigRemove({99}),
                                0.0);
    hub.pollLink(1.0);
    const auto frames = phoneSideFrames(link, 2.0);
    ASSERT_EQ(frames.size(), 1u);
    EXPECT_EQ(frames[0].type, transport::MessageType::ConfigReject);
}

TEST(HubRuntime, NoiseOnTheLinkIsCountedNotFatal)
{
    transport::LinkPair link(1e6);
    HubRuntime hub(link, accelChannels(), msp430());

    link.phoneToHub().send({0xDE, 0xAD, 0xBE, 0xEF}, 0.0);
    link.phoneToHub().sendFrame(
        transport::encodeConfigPush({1, motionIl}), 0.001);
    hub.pollLink(1.0);

    EXPECT_GT(hub.linkDropBytes(), 0u);
    EXPECT_TRUE(hub.engine().hasCondition(1));
}

TEST(HubRuntime, CapacityAccountsForInstalledConditions)
{
    transport::LinkPair link(1e6);
    // A hub MCU with room for one motion condition but not many.
    McuModel tiny{"tiny", 1.0, 1000.0};
    HubRuntime hub(link, accelChannels(), tiny);

    link.phoneToHub().sendFrame(
        transport::encodeConfigPush({1, motionIl}), 0.0);
    link.phoneToHub().sendFrame(
        transport::encodeConfigPush(
            {2, "ACC_X -> movingAvg(id=1, params={20});\n"
                "1 -> minThreshold(id=2, params={3});\n"
                "2 -> OUT;\n"}),
        0.001);
    hub.pollLink(1.0);

    const auto frames = phoneSideFrames(link, 2.0);
    ASSERT_EQ(frames.size(), 2u);
    EXPECT_EQ(frames[0].type, transport::MessageType::ConfigAck);
    EXPECT_EQ(frames[1].type, transport::MessageType::ConfigReject);
}

} // namespace
} // namespace sidewinder::hub
