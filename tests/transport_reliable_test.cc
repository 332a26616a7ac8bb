/**
 * @file
 * Tests for the reliable transport layer: wrap/unwrap encoding,
 * stop-and-wait ack/retransmit behavior, duplicate suppression, the
 * give-up link-down verdict, and the frame-decoder corruption
 * property (any byte corruption yields a CRC reject or a
 * byte-identical frame — never a silently wrong payload).
 */

#include <gtest/gtest.h>

#include "support/error.h"
#include "support/rng.h"
#include "transport/frame.h"
#include "transport/link.h"
#include "transport/messages.h"
#include "transport/reliable.h"

namespace sidewinder::transport {
namespace {

Frame
configFrame(int id)
{
    return encodeConfigPush({id, "ACC_X -> movingAvg(id=1, params={4});\n"
                                 "1 -> OUT;\n"});
}

/** Decode everything deliverable on @p rx by time @p now. */
std::vector<Frame>
drainFrames(UartLink &rx, FrameDecoder &decoder, double now)
{
    decoder.feed(rx.receive(now));
    std::vector<Frame> frames;
    while (auto frame = decoder.poll())
        frames.push_back(*frame);
    return frames;
}

TEST(ReliableCodec, DataRoundtrip)
{
    const Frame inner = configFrame(42);
    const Frame wrapped = encodeReliableData(777, inner, 5);
    EXPECT_EQ(wrapped.type, MessageType::Reliable);
    const ReliableData data = decodeReliableData(wrapped);
    EXPECT_EQ(data.seq, 777);
    EXPECT_EQ(data.configEpoch, 5u);
    EXPECT_EQ(data.inner, inner);

    // Epoch defaults to 0 — the unversioned stamp.
    EXPECT_EQ(decodeReliableData(encodeReliableData(1, inner)).configEpoch,
              0u);
}

TEST(ReliableCodec, AckRoundtrip)
{
    EXPECT_EQ(decodeLinkAck(encodeLinkAck(0)), 0);
    EXPECT_EQ(decodeLinkAck(encodeLinkAck(65535)), 65535);
}

TEST(ReliableCodec, HeartbeatRoundtrip)
{
    HeartbeatMessage beat;
    beat.bootId = 3;
    beat.uptimeSeconds = 12.5;
    const auto decoded = decodeHeartbeat(encodeHeartbeat(beat));
    EXPECT_EQ(decoded.bootId, 3u);
    EXPECT_DOUBLE_EQ(decoded.uptimeSeconds, 12.5);
}

TEST(ReliableCodec, MalformedPayloadsThrow)
{
    Frame bad;
    bad.type = MessageType::Reliable;
    bad.payload = {0x01};
    EXPECT_THROW(decodeReliableData(bad), TransportError);

    bad.type = MessageType::LinkAck;
    bad.payload = {0x01, 0x02, 0x03};
    EXPECT_THROW(decodeLinkAck(bad), TransportError);

    EXPECT_THROW(decodeHeartbeat(configFrame(1)), TransportError);
}

TEST(ReliableCodec, WireBytesMatchEncoding)
{
    const Frame inner = configFrame(9);
    const Frame wrapped = encodeReliableData(0, inner);
    EXPECT_EQ(reliableWireBytes(inner), encodeFrame(wrapped).size());
    EXPECT_EQ(configPushWireBytes({9, "hello"}),
              encodeFrame(encodeConfigPush({9, "hello"})).size());
}

TEST(ReliableEndpoint, DeliversAndAcksOverCleanLink)
{
    LinkPair link(115200.0);
    ReliableEndpoint sender(link.phoneToHub());
    ReliableEndpoint receiver(link.hubToPhone());

    const Frame inner = configFrame(1);
    sender.sendFrame(inner, 0.0);

    FrameDecoder rx_decoder;
    FrameDecoder tx_decoder;
    std::vector<Frame> delivered;
    for (int step = 1; step <= 50; ++step) {
        const double t = step * 0.01;
        for (const auto &f :
             drainFrames(link.phoneToHub(), rx_decoder, t))
            if (auto got = receiver.onFrame(f, t))
                delivered.push_back(*got);
        for (const auto &f :
             drainFrames(link.hubToPhone(), tx_decoder, t))
            sender.onFrame(f, t);
        sender.tick(t);
    }

    ASSERT_EQ(delivered.size(), 1u);
    EXPECT_EQ(delivered[0], inner);
    EXPECT_EQ(sender.stats().framesSent, 1u);
    EXPECT_EQ(sender.stats().retransmits, 0u);
    EXPECT_EQ(sender.stats().acksReceived, 1u);
    EXPECT_EQ(receiver.stats().acksSent, 1u);
    EXPECT_EQ(sender.queuedFrames(), 0u);
    EXPECT_FALSE(sender.linkDown());
}

TEST(ReliableEndpoint, RetransmitsAfterFrameLoss)
{
    LinkPair link(115200.0);
    // Drop exactly the first transmission.
    int sent = 0;
    link.phoneToHub().setFrameDropper([&sent]() { return ++sent == 1; });

    ReliableEndpoint sender(link.phoneToHub());
    ReliableEndpoint receiver(link.hubToPhone());
    sender.sendFrame(configFrame(1), 0.0);

    FrameDecoder rx_decoder;
    FrameDecoder tx_decoder;
    std::vector<Frame> delivered;
    for (int step = 1; step <= 200; ++step) {
        const double t = step * 0.01;
        for (const auto &f :
             drainFrames(link.phoneToHub(), rx_decoder, t))
            if (auto got = receiver.onFrame(f, t))
                delivered.push_back(*got);
        for (const auto &f :
             drainFrames(link.hubToPhone(), tx_decoder, t))
            sender.onFrame(f, t);
        sender.tick(t);
    }

    ASSERT_EQ(delivered.size(), 1u);
    EXPECT_EQ(sender.stats().retransmits, 1u);
    EXPECT_EQ(link.phoneToHub().droppedFrames(), 1u);
    EXPECT_FALSE(sender.linkDown());
}

TEST(ReliableEndpoint, DueOnlyOnceTheAckDeadlinePasses)
{
    // due() is tick()'s own guard: false while nothing is in flight
    // or the deadline is ahead, and a tick then sends nothing.
    LinkPair link(115200.0);
    link.phoneToHub().setFrameDropper([] { return true; });
    ReliableEndpoint sender(link.phoneToHub());
    EXPECT_FALSE(sender.due(100.0));
    sender.sendFrame(configFrame(1), 0.0);
    double t = 0.0;
    while (!sender.due(t)) {
        sender.tick(t);
        ASSERT_EQ(sender.stats().retransmits, 0u) << "t=" << t;
        t += 0.001;
    }
    EXPECT_GT(t, 0.05); // at least the ack timeout
    sender.tick(t);
    EXPECT_EQ(sender.stats().retransmits, 1u);
    EXPECT_FALSE(sender.due(t)); // the retransmit set a new deadline
}

TEST(ReliableEndpoint, SuppressesDuplicateAfterLostAck)
{
    LinkPair link(115200.0);
    // Drop exactly the first ack the receiver sends back.
    int acks = 0;
    link.hubToPhone().setFrameDropper([&acks]() { return ++acks == 1; });

    ReliableEndpoint sender(link.phoneToHub());
    ReliableEndpoint receiver(link.hubToPhone());
    sender.sendFrame(configFrame(1), 0.0);

    FrameDecoder rx_decoder;
    FrameDecoder tx_decoder;
    std::vector<Frame> delivered;
    for (int step = 1; step <= 300; ++step) {
        const double t = step * 0.01;
        for (const auto &f :
             drainFrames(link.phoneToHub(), rx_decoder, t))
            if (auto got = receiver.onFrame(f, t))
                delivered.push_back(*got);
        for (const auto &f :
             drainFrames(link.hubToPhone(), tx_decoder, t))
            sender.onFrame(f, t);
        sender.tick(t);
    }

    // The retransmitted copy reached the receiver twice; the
    // application saw it once.
    ASSERT_EQ(delivered.size(), 1u);
    EXPECT_EQ(receiver.stats().duplicatesDropped, 1u);
    EXPECT_GE(receiver.stats().acksSent, 2u);
    EXPECT_FALSE(sender.linkDown());
}

TEST(ReliableEndpoint, GivesUpAndLatchesLinkDown)
{
    LinkPair link(115200.0);
    link.phoneToHub().setFrameDropper([]() { return true; });

    ReliableConfig config;
    config.maxAttempts = 3;
    config.ackTimeoutSeconds = 0.02;
    config.maxBackoffSeconds = 0.05;
    ReliableEndpoint sender(link.phoneToHub(), config);

    sender.sendFrame(configFrame(1), 0.0);
    sender.sendFrame(configFrame(2), 0.0);
    for (int step = 1; step <= 200; ++step)
        sender.tick(step * 0.01);

    EXPECT_TRUE(sender.linkDown());
    EXPECT_EQ(sender.stats().framesLost, 2u);
    EXPECT_EQ(sender.queuedFrames(), 0u);
    // 3 attempts per frame: 1 first transmission + 2 retransmits.
    EXPECT_EQ(sender.stats().retransmits, 4u);
}

TEST(ReliableEndpoint, BoundedQueueTailDrops)
{
    LinkPair link(115200.0);
    ReliableConfig config;
    config.maxQueueDepth = 4;
    ReliableEndpoint sender(link.phoneToHub(), config);

    for (int i = 0; i < 10; ++i)
        sender.sendFrame(configFrame(i), 0.0);

    EXPECT_EQ(sender.queuedFrames(), 4u);
    EXPECT_EQ(sender.stats().queueOverflows, 6u);
}

TEST(ReliableEndpoint, ResetClearsDedupAndDownLatch)
{
    LinkPair link(115200.0);
    ReliableEndpoint receiver(link.hubToPhone());

    // Seq 0 delivered once, duplicate suppressed.
    EXPECT_TRUE(
        receiver.onFrame(encodeReliableData(0, configFrame(1)), 0.0)
            .has_value());
    EXPECT_FALSE(
        receiver.onFrame(encodeReliableData(0, configFrame(1)), 0.1)
            .has_value());

    // After reset (e.g. peer rebooted), a fresh peer's seq 0 must be
    // delivered again, not swallowed by stale dedup state.
    receiver.reset();
    EXPECT_TRUE(
        receiver.onFrame(encodeReliableData(0, configFrame(1)), 0.2)
            .has_value());
}

TEST(ReliableEndpoint, StaleEpochRetransmitIsRefusedNotDelivered)
{
    LinkPair link(115200.0);
    ReliableEndpoint receiver(link.hubToPhone());
    receiver.setMinimumEpoch(3);

    // A delayed retransmit stamped with a superseded epoch: acked (so
    // the sender stops retrying) but refused with a distinct verdict —
    // not silently dropped, not delivered, not counted as a duplicate.
    DeliveryVerdict verdict{};
    EXPECT_FALSE(
        receiver.onFrame(encodeReliableData(0, configFrame(1), 2), 0.0,
                         &verdict)
            .has_value());
    EXPECT_EQ(verdict, DeliveryVerdict::StaleEpoch);
    EXPECT_EQ(receiver.stats().staleEpochFrames, 1u);
    EXPECT_EQ(receiver.stats().duplicatesDropped, 0u);
    EXPECT_EQ(receiver.stats().acksSent, 1u);

    // Current-epoch data on the same sequence still arrives fresh —
    // the stale frame must not have poisoned the dedup state.
    EXPECT_TRUE(
        receiver.onFrame(encodeReliableData(0, configFrame(1), 3), 0.1,
                         &verdict)
            .has_value());
    EXPECT_EQ(verdict, DeliveryVerdict::Delivered);

    // Unversioned (epoch 0) frames are never epoch-filtered.
    EXPECT_TRUE(
        receiver.onFrame(encodeReliableData(1, configFrame(2), 0), 0.2,
                         &verdict)
            .has_value());
    EXPECT_EQ(verdict, DeliveryVerdict::Delivered);

    // The filter survives reset() — that is the whole point: reset
    // clears the dedup state a delayed retransmit would otherwise
    // need to get past.
    receiver.reset();
    EXPECT_FALSE(
        receiver.onFrame(encodeReliableData(7, configFrame(1), 1), 0.3,
                         &verdict)
            .has_value());
    EXPECT_EQ(verdict, DeliveryVerdict::StaleEpoch);
    EXPECT_EQ(receiver.stats().staleEpochFrames, 2u);
}

TEST(ReliableEndpoint, NonReliableFramesPassThrough)
{
    LinkPair link(115200.0);
    ReliableEndpoint endpoint(link.phoneToHub());
    const Frame plain = configFrame(5);
    const auto out = endpoint.onFrame(plain, 0.0);
    ASSERT_TRUE(out.has_value());
    EXPECT_EQ(*out, plain);
    EXPECT_EQ(endpoint.stats().acksSent, 0u);
}

// ---------------------------------------------------------------------
// Frame-decoder corruption property (ISSUE 4 satellite): any byte-level
// corruption of an encoded frame either fails the CRC (no frame, bytes
// counted as dropped) or resynchronizes to a byte-identical frame —
// never a silently wrong payload.
// ---------------------------------------------------------------------

TEST(FrameDecoderProperty, CorruptionNeverYieldsWrongPayload)
{
    Rng rng(0xC0FFEE);
    for (int trial = 0; trial < 500; ++trial) {
        // A payload with embedded SOF bytes, so resynchronization has
        // tempting false frame starts to trip over.
        WakeUpMessage message;
        message.conditionId = trial;
        message.timestamp = trial * 0.25;
        const int raw = 1 + static_cast<int>(rng.uniformInt(0, 30));
        for (int i = 0; i < raw; ++i)
            message.rawData.push_back(
                rng.chance(0.3) ? 126.0 : rng.uniform(-50.0, 50.0));
        const Frame original = encodeWakeUp(message);
        auto bytes = encodeFrame(original);

        const int flips = 1 + static_cast<int>(rng.uniformInt(0, 2));
        for (int f = 0; f < flips; ++f) {
            const auto pos = static_cast<std::size_t>(rng.uniformInt(
                0, static_cast<std::int64_t>(bytes.size()) - 1));
            const auto mask = static_cast<std::uint8_t>(
                rng.uniformInt(1, 255)); // nonzero: byte changes
            bytes[pos] ^= mask;
        }

        FrameDecoder decoder;
        decoder.feed(bytes);
        // Flush any candidate a corrupted header left pending (a
        // stalled receiver would do this via tickStall); rescanning
        // must not manufacture a wrong payload either.
        while (decoder.midFrame())
            decoder.resync();
        while (auto frame = decoder.poll())
            ASSERT_EQ(*frame, original)
                << "corrupted frame decoded to a different payload "
                   "(trial "
                << trial << ")";
    }
}

TEST(FrameDecoderProperty, ResynchronizesAfterMidStreamGarbage)
{
    Rng rng(0xFEED);
    for (int trial = 0; trial < 200; ++trial) {
        const Frame first = configFrame(trial);
        const Frame second = encodeLinkAck(
            static_cast<std::uint16_t>(trial));

        std::vector<std::uint8_t> stream = encodeFrame(first);
        // Mid-stream garbage burst, SOF bytes included.
        const int garbage = 1 + static_cast<int>(rng.uniformInt(0, 40));
        for (int i = 0; i < garbage; ++i)
            stream.push_back(static_cast<std::uint8_t>(
                rng.chance(0.2) ? 0x7E : rng.uniformInt(0, 255)));
        const auto tail = encodeFrame(second);
        stream.insert(stream.end(), tail.begin(), tail.end());

        FrameDecoder decoder;
        decoder.feed(stream);
        while (decoder.midFrame())
            decoder.resync();
        std::vector<Frame> decoded;
        while (auto frame = decoder.poll())
            decoded.push_back(*frame);

        // Both intact frames must surface; anything else decoded must
        // be one of them (garbage can only be rejected, not morph
        // into a new payload).
        ASSERT_GE(decoded.size(), 2u);
        EXPECT_EQ(decoded.front(), first);
        EXPECT_EQ(decoded.back(), second);
        for (const auto &frame : decoded)
            EXPECT_TRUE(frame == first || frame == second);
    }
}

} // namespace
} // namespace sidewinder::transport
