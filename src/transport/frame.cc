#include "transport/frame.h"

#include <algorithm>
#include <cstring>

#include "support/error.h"
#include "transport/crc.h"

namespace sidewinder::transport {

namespace {

/** SOF, type and the two length bytes ahead of the payload. */
constexpr std::size_t frameHeaderBytes = 4;
/** The big-endian CRC behind the payload. */
constexpr std::size_t frameCrcBytes = 2;

} // namespace

std::vector<std::uint8_t>
encodeFrame(const Frame &frame)
{
    if (frame.payload.size() > maxPayloadBytes)
        throw TransportError("frame payload too large: " +
                             std::to_string(frame.payload.size()));

    std::vector<std::uint8_t> wire;
    wire.reserve(frame.payload.size() + 6);
    wire.push_back(frameSof);
    wire.push_back(static_cast<std::uint8_t>(frame.type));
    wire.push_back(
        static_cast<std::uint8_t>(frame.payload.size() & 0xFF));
    wire.push_back(
        static_cast<std::uint8_t>((frame.payload.size() >> 8) & 0xFF));
    wire.insert(wire.end(), frame.payload.begin(), frame.payload.end());

    // The CRC covers type, length and payload (everything after SOF).
    const std::uint16_t crc =
        crc16(std::span<const std::uint8_t>(wire).subspan(1));
    wire.push_back(static_cast<std::uint8_t>((crc >> 8) & 0xFF));
    wire.push_back(static_cast<std::uint8_t>(crc & 0xFF));
    return wire;
}

void
FrameDecoder::fail()
{
    // The SOF that opened this candidate was presumably noise (or the
    // header behind it was corrupted); everything that followed it may
    // be — or contain — a real frame, so rescan it ahead of the unread
    // bytes instead of discarding it.
    ++dropped;
    state = State::Sync;
    rescan.erase(rescan.begin(),
                 rescan.begin() + static_cast<std::ptrdiff_t>(rescanPos));
    rescan.insert(rescan.begin(), raw.begin() + 1, raw.end());
    rescanPos = 0;
    raw.clear();
}

std::size_t
FrameDecoder::parse(std::span<const std::uint8_t> in, bool &failed)
{
    std::size_t i = 0;
    while (i < in.size()) {
        if (state == State::Sync) {
            const auto *sof = static_cast<const std::uint8_t *>(
                std::memchr(in.data() + i, frameSof, in.size() - i));
            const std::size_t at =
                sof ? static_cast<std::size_t>(sof - in.data())
                    : in.size();
            dropped += at - i;
            if (!sof)
                return at;
            i = at + 1;
            state = State::Type;
            crcAccum = 0xFFFF;
            raw.assign(1, frameSof);
            ++candidateEpoch;
            continue;
        }
        if (state == State::Payload) {
            const std::size_t have = raw.size() - frameHeaderBytes;
            const auto chunk =
                in.subspan(i, std::min(expected - have, in.size() - i));
            crcAccum = crc16Update(crcAccum, chunk);
            raw.insert(raw.end(), chunk.begin(), chunk.end());
            i += chunk.size();
            if (have + chunk.size() == expected)
                state = State::CrcHi;
            continue;
        }

        const std::uint8_t byte = in[i++];
        raw.push_back(byte);
        switch (state) {
          case State::Type:
            crcAccum = crc16Step(crcAccum, byte);
            if (byte < 1 ||
                byte > static_cast<std::uint8_t>(MessageType::UpdateAck)) {
                failed = true;
                return i;
            }
            state = State::LenLo;
            break;
          case State::LenLo:
            expected = byte;
            crcAccum = crc16Step(crcAccum, byte);
            state = State::LenHi;
            break;
          case State::LenHi:
            expected |= static_cast<std::size_t>(byte) << 8;
            crcAccum = crc16Step(crcAccum, byte);
            if (expected > maxPayloadBytes) {
                failed = true;
                return i;
            }
            state = expected == 0 ? State::CrcHi : State::Payload;
            break;
          case State::CrcHi:
            state = State::CrcLo;
            break;
          case State::CrcLo: {
            const auto received = static_cast<std::uint16_t>(
                raw[raw.size() - 2] << 8 | byte);
            if (received != crcAccum) {
                failed = true;
                return i;
            }
            Frame frame;
            frame.type = static_cast<MessageType>(raw[1]);
            frame.payload.assign(raw.begin() + frameHeaderBytes,
                                 raw.end() - frameCrcBytes);
            ready.push_back(std::move(frame));
            state = State::Sync;
            raw.clear();
            break;
          }
          case State::Sync:
          case State::Payload:
            break; // handled above
        }
    }
    return i;
}

void
FrameDecoder::feed(std::span<const std::uint8_t> bytes)
{
    // Rescanned bytes go first. Each failure consumes its candidate's
    // SOF for good, so this terminates.
    for (;;) {
        bool failed = false;
        if (rescanPos < rescan.size()) {
            rescanPos += parse(
                std::span<const std::uint8_t>(rescan).subspan(rescanPos),
                failed);
        } else if (!bytes.empty()) {
            bytes = bytes.subspan(parse(bytes, failed));
        } else {
            rescan.clear();
            rescanPos = 0;
            return;
        }
        if (failed)
            fail();
    }
}

void
FrameDecoder::resync()
{
    if (state == State::Sync)
        return;
    fail();
    feed(std::span<const std::uint8_t>());
}

void
FrameDecoder::tickStall(double now)
{
    switch (stallStep(now)) {
      case StallStep::None:
        return;
      case StallStep::Observe:
        stallObservedEpoch = candidateEpoch;
        stallSince = now;
        return;
      case StallStep::Resync:
        resync();
        stallSince = -1.0;
        return;
      case StallStep::Clear:
        stallSince = -1.0;
        return;
    }
}

std::optional<Frame>
FrameDecoder::poll()
{
    if (ready.empty())
        return std::nullopt;
    Frame frame = std::move(ready.front());
    ready.pop_front();
    return frame;
}

} // namespace sidewinder::transport
