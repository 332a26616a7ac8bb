/**
 * @file
 * Unit tests for the transport layer: CRC (the lookup table and the
 * slicing-by-8 fold against the bitwise definition), frame codec
 * with fault injection and the decoder's chunking invariance, message
 * serialization, and UART timing, corruption hook and receive views.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <deque>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "support/error.h"
#include "support/rng.h"
#include "transport/crc.h"
#include "transport/frame.h"
#include "transport/link.h"
#include "transport/messages.h"

namespace sidewinder::transport {
namespace {

TEST(Crc16, KnownVector)
{
    // CRC-16/CCITT-FALSE of "123456789" is 0x29B1.
    const std::string text = "123456789";
    std::vector<std::uint8_t> data(text.begin(), text.end());
    EXPECT_EQ(crc16(data), 0x29B1);
}

TEST(Crc16, EmptyIsInit)
{
    EXPECT_EQ(crc16({}), 0xFFFF);
}

/** The CRC-16/CCITT-FALSE register update, one bit at a time. */
std::uint16_t
bitwiseCrc16Step(std::uint16_t crc, std::uint8_t byte)
{
    crc ^= static_cast<std::uint16_t>(byte) << 8;
    for (int bit = 0; bit < 8; ++bit) {
        if (crc & 0x8000)
            crc = static_cast<std::uint16_t>((crc << 1) ^ 0x1021);
        else
            crc = static_cast<std::uint16_t>(crc << 1);
    }
    return crc;
}

TEST(Crc16, TableStepMatchesBitwiseDefinition)
{
    Rng rng(0xC2C);
    std::vector<std::uint16_t> states = {0x0000, 0xFFFF, 0x8000, 0x0001};
    for (int i = 0; i < 500; ++i)
        states.push_back(
            static_cast<std::uint16_t>(rng.uniformInt(0, 0xFFFF)));
    for (std::uint16_t state : states)
        for (unsigned byte = 0; byte < 256; ++byte)
            ASSERT_EQ(crc16Step(state, static_cast<std::uint8_t>(byte)),
                      bitwiseCrc16Step(state,
                                       static_cast<std::uint8_t>(byte)))
                << "state " << state << " byte " << byte;
}

TEST(Crc16, UpdateFoldsBytesInOrder)
{
    auto fold = [](std::uint16_t crc, std::span<const std::uint8_t> span) {
        for (std::uint8_t byte : span)
            crc = bitwiseCrc16Step(crc, byte);
        return crc;
    };
    Rng rng(31);
    std::vector<std::uint8_t> data(1000);
    for (auto &byte : data)
        byte = static_cast<std::uint8_t>(rng.uniformInt(0, 255));
    const std::uint16_t bitwise = fold(0xFFFF, data);
    EXPECT_EQ(crc16(data), bitwise);
    const std::span<const std::uint8_t> all(data);
    EXPECT_EQ(crc16Update(crc16(all.first(377)), all.subspan(377)),
              bitwise);

    // crc16Update folds eight bytes at a time, then byte by byte:
    // every length around the eight-byte blocks, at every alignment,
    // from many register states, then long random spans.
    std::vector<std::uint8_t> buffer(4096 + 8);
    for (auto &byte : buffer)
        byte = static_cast<std::uint8_t>(rng.uniformInt(0, 255));
    const std::span<const std::uint8_t> bytes(buffer);
    for (int s = 0; s < 64; ++s) {
        const auto state =
            static_cast<std::uint16_t>(rng.uniformInt(0, 0xFFFF));
        for (std::size_t offset = 0; offset < 8; ++offset)
            for (std::size_t length = 0; length <= 64; ++length) {
                const auto span = bytes.subspan(offset, length);
                ASSERT_EQ(crc16Update(state, span), fold(state, span))
                    << "state " << state << " offset " << offset
                    << " length " << length;
            }
    }
    for (int i = 0; i < 200; ++i) {
        const auto state =
            static_cast<std::uint16_t>(rng.uniformInt(0, 0xFFFF));
        const auto offset = static_cast<std::size_t>(rng.uniformInt(0, 7));
        const auto length =
            static_cast<std::size_t>(rng.uniformInt(1, 4096));
        const auto span = bytes.subspan(offset, length);
        ASSERT_EQ(crc16Update(state, span), fold(state, span))
            << "state " << state << " offset " << offset << " length "
            << length;
    }
}

TEST(FrameCodec, RoundTripsPayload)
{
    Frame frame;
    frame.type = MessageType::WakeUp;
    frame.payload = {1, 2, 3, 0x7E, 0xFF, 0};

    FrameDecoder decoder;
    decoder.feed(encodeFrame(frame));
    const auto decoded = decoder.poll();
    ASSERT_TRUE(decoded.has_value());
    EXPECT_EQ(*decoded, frame);
    EXPECT_FALSE(decoder.poll().has_value());
    EXPECT_EQ(decoder.droppedBytes(), 0u);
}

TEST(FrameCodec, RoundTripsEmptyPayload)
{
    Frame frame;
    frame.type = MessageType::ConfigAck;

    FrameDecoder decoder;
    decoder.feed(encodeFrame(frame));
    const auto decoded = decoder.poll();
    ASSERT_TRUE(decoded.has_value());
    EXPECT_TRUE(decoded->payload.empty());
}

TEST(FrameCodec, RejectsOversizedPayload)
{
    Frame frame;
    frame.payload.assign(maxPayloadBytes + 1, 0);
    EXPECT_THROW(encodeFrame(frame), TransportError);
}

TEST(FrameCodec, ResynchronizesAfterNoise)
{
    Frame frame;
    frame.type = MessageType::ConfigPush;
    frame.payload = {42, 43};

    FrameDecoder decoder;
    decoder.feed({0x00, 0x13, 0x37}); // line noise
    decoder.feed(encodeFrame(frame));
    const auto decoded = decoder.poll();
    ASSERT_TRUE(decoded.has_value());
    EXPECT_EQ(*decoded, frame);
    EXPECT_EQ(decoder.droppedBytes(), 3u);
}

TEST(FrameCodec, DropsCorruptedFrameButRecovers)
{
    Frame frame;
    frame.type = MessageType::WakeUp;
    frame.payload = {9, 9, 9, 9};

    auto corrupted = encodeFrame(frame);
    corrupted[5] ^= 0x40; // flip a payload bit -> CRC mismatch

    FrameDecoder decoder;
    decoder.feed(corrupted);
    EXPECT_FALSE(decoder.poll().has_value());
    EXPECT_GT(decoder.droppedBytes(), 0u);

    decoder.feed(encodeFrame(frame));
    const auto decoded = decoder.poll();
    ASSERT_TRUE(decoded.has_value());
    EXPECT_EQ(*decoded, frame);
}

TEST(FrameCodec, SurvivesRandomNoiseBetweenFrames)
{
    Rng rng(17);
    FrameDecoder decoder;
    std::size_t delivered = 0;
    for (int round = 0; round < 50; ++round) {
        // Noise burst (may accidentally contain SOF bytes).
        const auto noise_len = rng.uniformInt(0, 20);
        for (long i = 0; i < noise_len; ++i)
            decoder.feed(
                static_cast<std::uint8_t>(rng.uniformInt(0, 255)));

        Frame frame;
        frame.type = MessageType::WakeUp;
        frame.payload = {static_cast<std::uint8_t>(round)};
        decoder.feed(encodeFrame(frame));
        while (auto f = decoder.poll()) {
            // Only count frames with our expected shape; noise can
            // theoretically fabricate a valid frame but CRC16 makes
            // that vanishingly rare within 50 rounds.
            if (f->type == MessageType::WakeUp &&
                f->payload.size() == 1)
                ++delivered;
        }
    }
    // Noise may eat the frame that follows it (the decoder may be
    // mid-"frame" when the real SOF arrives), but most must survive.
    EXPECT_GE(delivered, 25u);
}

TEST(Messages, ConfigPushRoundTrip)
{
    ConfigPushMessage message{7, "ACC_X -> movingAvg(id=1);\n"};
    const auto decoded = decodeConfigPush(encodeConfigPush(message));
    EXPECT_EQ(decoded.conditionId, 7);
    EXPECT_EQ(decoded.ilText, message.ilText);
}

TEST(Messages, RejectRoundTripPreservesReason)
{
    ConfigRejectMessage message{3, "capability exceeded"};
    const auto decoded =
        decodeConfigReject(encodeConfigReject(message));
    EXPECT_EQ(decoded.conditionId, 3);
    EXPECT_EQ(decoded.reason, "capability exceeded");
}

TEST(Messages, WakeUpRoundTripPreservesRawData)
{
    WakeUpMessage message;
    message.conditionId = 2;
    message.timestamp = 123.456;
    message.triggerValue = -6.5;
    message.rawData = {0.1, -0.2, 9.81};
    const auto decoded = decodeWakeUp(encodeWakeUp(message));
    EXPECT_EQ(decoded.conditionId, 2);
    EXPECT_DOUBLE_EQ(decoded.timestamp, 123.456);
    EXPECT_DOUBLE_EQ(decoded.triggerValue, -6.5);
    ASSERT_EQ(decoded.rawData.size(), 3u);
    EXPECT_DOUBLE_EQ(decoded.rawData[2], 9.81);
}

TEST(Messages, TypeMismatchThrows)
{
    const auto frame = encodeConfigAck({1});
    EXPECT_THROW(decodeWakeUp(frame), TransportError);
}

/** Append @p value to @p bytes as a little-endian u32. */
void
appendU32(std::vector<std::uint8_t> &bytes, std::uint32_t value)
{
    for (int i = 0; i < 4; ++i)
        bytes.push_back(static_cast<std::uint8_t>(value >> (8 * i)));
}

TEST(Messages, TruncatedPayloadThrows)
{
    auto frame = encodeWakeUp({1, 0.0, 0.0, {1.0, 2.0}});
    frame.payload.erase(frame.payload.end() - 4, frame.payload.end());
    EXPECT_THROW(decodeWakeUp(frame), TransportError);

    // A count no payload could hold is refused before anything is
    // sized by it: a CRC collision must not end the run in bad_alloc.
    constexpr std::uint32_t huge = 0xFFFFFFFF;
    auto wake = encodeWakeUp({1, 0.0, 0.0, {}});
    // The count follows the id, timestamp and trigger value.
    std::fill(wake.payload.begin() + 4 + 8 + 8, wake.payload.end(), 0xFF);
    EXPECT_THROW(decodeWakeUp(wake), TransportError);

    // DeltaPush payloads cut off at each of its four counts.
    const auto text = [](std::vector<std::uint8_t> &bytes,
                         const std::string &value) {
        appendU32(bytes, static_cast<std::uint32_t>(value.size()));
        bytes.insert(bytes.end(), value.begin(), value.end());
    };
    std::vector<std::uint8_t> head; // epoch, condition id
    appendU32(head, 1);
    appendU32(head, 1);
    std::vector<std::uint8_t> channels = head;
    appendU32(channels, huge);
    std::vector<std::uint8_t> entries = head;
    appendU32(entries, 0);
    appendU32(entries, huge);
    std::vector<std::uint8_t> params = head;
    appendU32(params, 1);
    text(params, "ACC_X");
    appendU32(params, 1);
    params.push_back(0); // shipped, not a hash reference
    text(params, "movingAvg");
    std::vector<std::uint8_t> inputs = params;
    appendU32(params, huge);
    appendU32(inputs, 0);
    appendU32(inputs, huge);
    for (const auto &payload : {channels, entries, params, inputs})
        EXPECT_THROW(decodeDeltaPush(Frame{MessageType::DeltaPush, payload}),
                     TransportError);
}

TEST(UartLink, RejectsBadBaud)
{
    EXPECT_THROW(UartLink(0.0), TransportError);
}

TEST(UartLink, TransferTimeMatches8N1)
{
    UartLink link(115200.0);
    EXPECT_NEAR(link.transferSeconds(1152), 0.1, 1e-9);
    EXPECT_NEAR(link.bandwidthBitsPerSecond(), 92160.0, 1e-9);
}

TEST(UartLink, DeliversOnlyAfterSerializationDelay)
{
    UartLink link(1000.0); // 10 ms per byte
    link.send({1, 2, 3}, 0.0);
    EXPECT_TRUE(link.receive(0.005).empty());
    EXPECT_EQ(link.receive(0.0101).size(), 1u);
    EXPECT_EQ(link.receive(0.0301).size(), 2u);
    EXPECT_EQ(link.pendingBytes(0.0301), 0u);
}

TEST(UartLink, QueuesBackToBackSends)
{
    UartLink link(1000.0);
    link.send({1}, 0.0);
    link.send({2}, 0.0); // must wait for the first byte
    auto bytes = link.receive(0.0201);
    ASSERT_EQ(bytes.size(), 2u);
    EXPECT_EQ(bytes[0], 1);
    EXPECT_EQ(bytes[1], 2);
}

TEST(UartLink, CorruptorAffectsDelivery)
{
    UartLink link(1e6);
    link.setCorruptor([](std::span<std::uint8_t> bytes) {
        for (std::uint8_t &b : bytes)
            b = static_cast<std::uint8_t>(b ^ 0xFF);
    });
    link.send({0x0F}, 0.0);
    const auto bytes = link.receive(1.0);
    ASSERT_EQ(bytes.size(), 1u);
    EXPECT_EQ(bytes[0], 0xF0);
}

TEST(UartLink, FrameOverCorruptLinkIsDroppedByDecoder)
{
    UartLink link(1e6);
    int count = 0;
    link.setCorruptor([&count](std::span<std::uint8_t> bytes) {
        for (std::uint8_t &b : bytes)
            if (++count == 6)
                b = static_cast<std::uint8_t>(b ^ 1);
    });

    Frame frame;
    frame.type = MessageType::ConfigAck;
    frame.payload = {1, 2, 3, 4};
    link.sendFrame(frame, 0.0);

    FrameDecoder decoder;
    decoder.feed(link.receive(1.0));
    EXPECT_FALSE(decoder.poll().has_value());
}

TEST(UartLink, CorruptorSeesEachSendOnceInOrder)
{
    UartLink link(1e5);
    std::vector<std::vector<std::uint8_t>> seen;
    std::size_t changed = 0;
    Rng rng(5);
    link.setCorruptor([&](std::span<std::uint8_t> bytes) {
        seen.emplace_back(bytes.begin(), bytes.end());
        for (std::uint8_t &b : bytes) {
            if (rng.uniformInt(0, 9) == 0) {
                b = static_cast<std::uint8_t>(b ^ 0x10);
                ++changed;
            }
        }
    });

    std::vector<std::vector<std::uint8_t>> sent;
    std::vector<std::uint8_t> wire;
    double now = 0.0;
    for (int i = 0; i < 40; ++i) {
        std::vector<std::uint8_t> bytes(
            static_cast<std::size_t>(rng.uniformInt(0, 50)));
        for (auto &b : bytes)
            b = static_cast<std::uint8_t>(rng.uniformInt(0, 255));
        link.send(bytes, now);
        sent.push_back(bytes);
        if (i % 3 == 0) {
            const auto got = link.receive(now);
            wire.insert(wire.end(), got.begin(), got.end());
        }
        now += 1e-3;
    }
    Frame frame;
    frame.type = MessageType::WakeUp;
    frame.payload = {1, 2, 0x7E, 4};
    link.sendFrame(frame, now);
    sent.push_back(encodeFrame(frame));

    EXPECT_EQ(seen, sent);
    EXPECT_GT(changed, 0u);
    EXPECT_EQ(link.corruptedBytes(), changed);

    // What arrives is exactly what the hook left, byte for byte.
    const auto rest = link.receive(1e9);
    wire.insert(wire.end(), rest.begin(), rest.end());
    std::vector<std::uint8_t> all_sent;
    for (const auto &bytes : sent)
        all_sent.insert(all_sent.end(), bytes.begin(), bytes.end());
    ASSERT_EQ(wire.size(), all_sent.size());
    std::size_t differing = 0;
    for (std::size_t i = 0; i < wire.size(); ++i)
        differing += wire[i] != all_sent[i];
    EXPECT_EQ(differing, changed);
}

TEST(UartLink, DueExactlyWhenReceiveWouldDeliver)
{
    UartLink link(115200.0);
    Rng rng(0xD0E);
    double now = 0.0;
    double first_due = 0.0; // the latest send's first delivery time
    EXPECT_FALSE(link.due(now));
    for (int step = 0; step < 4000; ++step) {
        if (rng.chance(0.2)) {
            first_due =
                std::max(now, link.busyUntil()) + link.transferSeconds(1);
            link.send(std::vector<std::uint8_t>(static_cast<std::size_t>(
                          rng.uniformInt(1, 40))),
                      now);
            continue;
        }
        // Sometimes land exactly on a delivery time.
        if (rng.chance(0.2))
            now = std::max(now, first_due);
        else if (rng.chance(0.2))
            now = std::max(now, link.busyUntil());
        else
            now += rng.uniform(0.0, 0.002);
        const bool due = link.due(now);
        ASSERT_EQ(due, !link.receive(now).empty()) << "step " << step;
        ASSERT_FALSE(link.due(now)) << "step " << step;
    }
}

TEST(UartLink, ReceiveViewsMatchANaivePerByteModel)
{
    // The reference keeps every in-flight byte with its own delivery
    // time, accumulated byte by byte the way the link defines it.
    struct Entry
    {
        std::uint8_t byte;
        double due;
    };
    UartLink link(115200.0);
    std::deque<Entry> naive;
    double naive_busy = 0.0;

    Rng rng(0x11AC);
    double now = 0.0;
    std::span<const std::uint8_t> held;
    std::vector<std::uint8_t> held_copy;
    for (int step = 0; step < 4000; ++step) {
        if (rng.chance(0.4)) {
            std::vector<std::uint8_t> bytes(
                static_cast<std::size_t>(rng.uniformInt(0, 300)));
            for (auto &b : bytes)
                b = static_cast<std::uint8_t>(rng.uniformInt(0, 255));
            link.send(bytes, now);
            double start = std::max(now, naive_busy);
            for (std::uint8_t b : bytes) {
                const double done = start + link.transferSeconds(1);
                naive.push_back({b, done});
                start = done;
            }
            naive_busy = start;
            ASSERT_EQ(link.busyUntil(), naive_busy) << "step " << step;
            held = {}; // a send ends the last view's life
            held_copy.clear();
        } else {
            // Sometimes land exactly on a pending byte's delivery time.
            if (!naive.empty() && rng.chance(0.3)) {
                const auto pick = static_cast<std::size_t>(rng.uniformInt(
                    0, static_cast<std::int64_t>(naive.size()) - 1));
                now = std::max(now, naive[pick].due);
            } else {
                now += rng.uniform(0.0, 0.01);
            }

            // An earlier view outlives later receives.
            ASSERT_TRUE(std::equal(held.begin(), held.end(),
                                   held_copy.begin(), held_copy.end()));
            const auto view = link.receive(now);
            std::vector<std::uint8_t> want;
            while (!naive.empty() && naive.front().due <= now + 1e-12) {
                want.push_back(naive.front().byte);
                naive.pop_front();
            }
            ASSERT_EQ(std::vector<std::uint8_t>(view.begin(), view.end()),
                      want)
                << "step " << step;
            held = view;
            held_copy = want;
        }
        ASSERT_EQ(link.pendingBytes(now), naive.size()) << "step " << step;
    }
}

/** Random bytes with SOF markers sprinkled in. */
std::vector<std::uint8_t>
noise(Rng &rng, std::size_t count)
{
    std::vector<std::uint8_t> bytes(count);
    for (auto &b : bytes)
        b = static_cast<std::uint8_t>(
            rng.chance(0.1) ? frameSof : rng.uniformInt(0, 255));
    return bytes;
}

/** A valid frame whose payload carries SOF bytes. */
Frame
randomFrame(Rng &rng)
{
    Frame frame;
    frame.type = static_cast<MessageType>(rng.uniformInt(
        1, static_cast<std::int64_t>(MessageType::UpdateAck)));
    frame.payload = noise(rng, static_cast<std::size_t>(
                                   rng.uniformInt(0, 600)));
    return frame;
}

/** Decode @p stream fed in chunks of @p sizes (cycled), resyncing a
    stalled candidate at @p stall_at, then flushing at the end. */
std::pair<std::vector<Frame>, std::size_t>
decodeInChunks(const std::vector<std::uint8_t> &stream,
               std::size_t stall_at, const std::vector<std::size_t> &sizes)
{
    FrameDecoder decoder;
    const std::span<const std::uint8_t> all(stream);
    auto feed = [&](std::span<const std::uint8_t> part) {
        for (std::size_t at = 0, k = 0; at < part.size(); ++k) {
            const std::size_t n =
                std::min(sizes[k % sizes.size()], part.size() - at);
            decoder.feed(part.subspan(at, n));
            at += n;
        }
    };
    feed(all.first(stall_at));
    EXPECT_TRUE(decoder.midFrame());
    const std::size_t before = decoder.droppedBytes();
    decoder.tickStall(10.0);
    decoder.tickStall(11.5);
    EXPECT_GT(decoder.droppedBytes(), before); // the stall fired
    feed(all.subspan(stall_at));
    while (decoder.midFrame())
        decoder.resync();

    std::vector<Frame> frames;
    while (auto frame = decoder.poll())
        frames.push_back(std::move(*frame));
    return {frames, decoder.droppedBytes()};
}

TEST(FrameDecoderChunking, AnySplitYieldsTheSameFramesAndDrops)
{
    Rng rng(0xC0FFEE);
    std::vector<std::uint8_t> stream;
    std::vector<Frame> intact;
    std::size_t stall_at = 0;
    auto append = [&](const std::vector<std::uint8_t> &bytes) {
        stream.insert(stream.end(), bytes.begin(), bytes.end());
    };
    for (int round = 0; round < 120; ++round) {
        append(noise(rng,
                     static_cast<std::size_t>(rng.uniformInt(0, 40))));
        const Frame frame = randomFrame(rng);
        auto wire = encodeFrame(frame);
        switch (round % 4) {
          case 0: // intact
            intact.push_back(frame);
            break;
          case 1: // bad type: fails on its first header byte
            wire[1] = rng.chance(0.5) ? 0 : 0xEE;
            break;
          case 2: // a length that swallows what follows, then a CRC miss
            wire[2] = static_cast<std::uint8_t>(rng.uniformInt(0, 255));
            wire[3] = static_cast<std::uint8_t>(rng.uniformInt(0, 0x0F));
            if (wire[2] == (frame.payload.size() & 0xFF) &&
                wire[3] == frame.payload.size() >> 8)
                wire[3] ^= 0x01;
            break;
          case 3: // CRC mismatch: its payload's SOFs get rescanned
            wire.back() ^= 0x5A;
            break;
        }
        append(wire);
        if (round == 60) {
            // A candidate that stalls: header and a little payload of
            // a frame that never finishes.
            const Frame lost = randomFrame(rng);
            const auto truncated = encodeFrame(lost);
            append({truncated.begin(),
                    truncated.begin() +
                        std::min<std::ptrdiff_t>(
                            10, static_cast<std::ptrdiff_t>(
                                    truncated.size()) - 1)});
            stall_at = stream.size();
        }
    }

    const auto [whole_frames, whole_dropped] =
        decodeInChunks(stream, stall_at, {stream.size()});
    EXPECT_EQ(whole_frames, intact);
    EXPECT_GT(whole_dropped, 0u);

    const auto [byte_frames, byte_dropped] =
        decodeInChunks(stream, stall_at, {1});
    EXPECT_EQ(byte_frames, whole_frames);
    EXPECT_EQ(byte_dropped, whole_dropped);

    // Chunks shorter than a header, then chunks that end mid-payload.
    for (int trial = 0; trial < 20; ++trial) {
        const std::int64_t longest = trial < 10 ? 8 : 900;
        std::vector<std::size_t> sizes(17);
        for (auto &n : sizes)
            n = static_cast<std::size_t>(rng.uniformInt(1, longest));
        const auto [frames, dropped] =
            decodeInChunks(stream, stall_at, sizes);
        EXPECT_EQ(frames, whole_frames) << "trial " << trial;
        EXPECT_EQ(dropped, whole_dropped) << "trial " << trial;
    }
}

/** Feed @p rest to @p decoder, flush its last candidate, and return
    every frame it then yields with its final drop count. */
std::pair<std::vector<Frame>, std::size_t>
finish(FrameDecoder decoder, std::span<const std::uint8_t> rest)
{
    decoder.feed(rest);
    while (decoder.midFrame())
        decoder.resync();
    std::vector<Frame> frames;
    while (auto frame = decoder.poll())
        frames.push_back(std::move(*frame));
    return {frames, decoder.droppedBytes()};
}

TEST(FrameDecoderChunking, StallPredicateNeverHidesAStateChange)
{
    // Receivers skip tickStall() whenever due() is false, so a tick
    // then must be a no-op: a copy that ticks stays equal to the
    // original, now and through the rest of the stream.
    Rng rng(0x57A11);
    std::vector<std::uint8_t> stream;
    for (int round = 0; round < 40; ++round) {
        const auto gap =
            noise(rng, static_cast<std::size_t>(rng.uniformInt(0, 40)));
        stream.insert(stream.end(), gap.begin(), gap.end());
        auto wire = encodeFrame(randomFrame(rng));
        if (rng.chance(0.4)) {
            // A length that promises more than follows: the candidate
            // waits for bytes and, with the feed paused, stalls.
            wire[2] = static_cast<std::uint8_t>(rng.uniformInt(0, 255));
            wire[3] = static_cast<std::uint8_t>(rng.uniformInt(2, 0x0F));
        }
        stream.insert(stream.end(), wire.begin(), wire.end());
    }

    const double timeout = frameStallTimeoutSeconds;
    const std::span<const std::uint8_t> all(stream);
    FrameDecoder decoder;
    std::size_t at = 0;
    double now = 0.0;
    // The latest tick that found work: a candidate's stall mark when
    // that tick observed it.
    double mark = -1.0;
    std::size_t idle = 0;
    std::size_t idle_on_deadline = 0;
    std::size_t stalls = 0;
    while (at < stream.size()) {
        if (rng.chance(0.3)) {
            const auto n = std::min(
                static_cast<std::size_t>(rng.uniformInt(1, 64)),
                stream.size() - at);
            decoder.feed(all.subspan(at, n));
            at += n;
            while (decoder.poll()) {
            }
            continue;
        }
        // Usually a short step; sometimes exactly the mark's deadline
        // or the next double after it.
        double next = now + rng.uniform(0.0, 0.3);
        const bool deadline = mark >= 0.0 && rng.chance(0.3);
        if (deadline) {
            next = mark + timeout;
            if (rng.chance(0.5))
                next = std::nextafter(next, next + 1.0);
        }
        now = std::max(now, next);
        if (decoder.due(now)) {
            const std::size_t dropped = decoder.droppedBytes();
            decoder.tickStall(now);
            stalls += decoder.droppedBytes() > dropped;
            mark = now;
            while (decoder.poll()) {
            }
            continue;
        }

        ++idle;
        idle_on_deadline += deadline && now == next;
        FrameDecoder ticked = decoder;
        ticked.tickStall(now);
        ASSERT_EQ(ticked.midFrame(), decoder.midFrame()) << "byte " << at;
        ASSERT_EQ(ticked.droppedBytes(), decoder.droppedBytes())
            << "byte " << at;
        for (double later : {now, now + 0.5 * timeout, now + timeout,
                             std::nextafter(now + timeout, now + 2.0),
                             now + 2.0 * timeout})
            ASSERT_EQ(ticked.due(later), decoder.due(later))
                << "byte " << at;
        ASSERT_EQ(finish(ticked, all.subspan(at)),
                  finish(decoder, all.subspan(at)))
            << "byte " << at;
    }
    EXPECT_GT(idle, 100u);
    EXPECT_GT(idle_on_deadline, 0u);
    EXPECT_GT(stalls, 0u);
}

TEST(SensorBatch, WireOverheadAccounting)
{
    // One frame: 38 bytes of framing/header + 2 per sample.
    EXPECT_EQ(sensorBatchWireBytes(100, 1024), 38u + 200u);
    // Two frames for 2000 samples at 1024 per frame.
    EXPECT_EQ(sensorBatchWireBytes(2000, 1024), 2u * 38u + 4000u);
    EXPECT_THROW(sensorBatchWireBytes(10, 0), TransportError);
}

TEST(SensorBatch, UartFeasibilityMatchesPaperClaims)
{
    // Section 3.4: the serial connection supports low bit-rate
    // sensors (accelerometer, microphone, GPS) but not the camera.
    const UartLink uart(115200.0);
    const double usable = uart.bandwidthBitsPerSecond();
    EXPECT_TRUE(canStreamContinuously(usable, 50.0));     // accel axis
    EXPECT_TRUE(canStreamContinuously(usable, 3 * 50.0)); // 3 axes
    EXPECT_TRUE(canStreamContinuously(usable, 4000.0));   // microphone
    // A camera stream (640*480 pixels at 30 fps) is far beyond UART.
    EXPECT_FALSE(canStreamContinuously(usable, 640.0 * 480.0 * 30.0));
}

} // namespace
} // namespace sidewinder::transport
