#include "transport/messages.h"

#include <bit>
#include <cstring>
#include <span>

#include "support/error.h"

namespace sidewinder::transport {

namespace {

/** Little-endian primitive writer over a growing byte vector. */
class Writer
{
  public:
    void
    u32(std::uint32_t value)
    {
        for (int i = 0; i < 4; ++i)
            bytes.push_back(
                static_cast<std::uint8_t>((value >> (8 * i)) & 0xFF));
    }

    void i32(std::int32_t value) { u32(static_cast<std::uint32_t>(value)); }

    void
    f64(double value)
    {
        std::uint64_t raw;
        static_assert(sizeof(raw) == sizeof(value));
        std::memcpy(&raw, &value, sizeof(raw));
        for (int i = 0; i < 8; ++i)
            bytes.push_back(
                static_cast<std::uint8_t>((raw >> (8 * i)) & 0xFF));
    }

    /** A u32 count, then each value as f64() writes it, in bulk. */
    void
    f64s(std::span<const double> values)
    {
        u32(static_cast<std::uint32_t>(values.size()));
        if constexpr (std::endian::native == std::endian::little) {
            const auto *raw =
                reinterpret_cast<const std::uint8_t *>(values.data());
            bytes.insert(bytes.end(), raw, raw + values.size_bytes());
        } else {
            for (double v : values)
                f64(v);
        }
    }

    void
    text(const std::string &value)
    {
        u32(static_cast<std::uint32_t>(value.size()));
        bytes.insert(bytes.end(), value.begin(), value.end());
    }

    std::vector<std::uint8_t> bytes;
};

/** Bounds-checked little-endian reader over a frame payload. */
class Reader
{
  public:
    explicit Reader(const std::vector<std::uint8_t> &bytes)
        : bytes(bytes)
    {}

    std::uint8_t
    u8()
    {
        need(1);
        return bytes[pos++];
    }

    std::uint32_t
    u32()
    {
        need(4);
        std::uint32_t value = 0;
        for (int i = 0; i < 4; ++i)
            value |= static_cast<std::uint32_t>(bytes[pos++]) << (8 * i);
        return value;
    }

    std::int32_t i32() { return static_cast<std::int32_t>(u32()); }

    double
    f64()
    {
        need(8);
        std::uint64_t raw = 0;
        for (int i = 0; i < 8; ++i)
            raw |= static_cast<std::uint64_t>(bytes[pos++]) << (8 * i);
        double value;
        std::memcpy(&value, &raw, sizeof(value));
        return value;
    }

    /**
     * A u32 count of items at least @p item_bytes long each. A count
     * the rest of the payload cannot hold throws before the caller
     * sizes anything by it.
     */
    std::uint32_t
    count(std::size_t item_bytes)
    {
        const std::uint32_t n = u32();
        if (static_cast<std::uint64_t>(n) * item_bytes >
            bytes.size() - pos)
            throw TransportError("message payload truncated");
        return n;
    }

    /** A count, then that many values as f64() reads them, in bulk. */
    std::vector<double>
    f64s()
    {
        std::vector<double> values(count(sizeof(double)));
        if constexpr (std::endian::native == std::endian::little) {
            const std::size_t size = values.size() * sizeof(double);
            if (size > 0)
                std::memcpy(values.data(), bytes.data() + pos, size);
            pos += size;
        } else {
            for (double &v : values)
                v = f64();
        }
        return values;
    }

    std::string
    text()
    {
        const std::uint32_t length = count(1);
        std::string value(bytes.begin() + static_cast<long>(pos),
                          bytes.begin() + static_cast<long>(pos + length));
        pos += length;
        return value;
    }

    void
    expectEnd() const
    {
        if (pos != bytes.size())
            throw TransportError("message payload has trailing bytes");
    }

  private:
    void
    need(std::size_t count) const
    {
        if (pos + count > bytes.size())
            throw TransportError("message payload truncated");
    }

    const std::vector<std::uint8_t> &bytes;
    std::size_t pos = 0;
};

void
expectType(const Frame &frame, MessageType type, const char *what)
{
    if (frame.type != type)
        throw TransportError(std::string("frame is not a ") + what +
                             " message");
}

} // namespace

Frame
encodeConfigPush(const ConfigPushMessage &message)
{
    Writer w;
    w.i32(message.conditionId);
    w.text(message.ilText);
    return Frame{MessageType::ConfigPush, std::move(w.bytes)};
}

Frame
encodeConfigAck(const ConfigAckMessage &message)
{
    Writer w;
    w.i32(message.conditionId);
    return Frame{MessageType::ConfigAck, std::move(w.bytes)};
}

Frame
encodeConfigReject(const ConfigRejectMessage &message)
{
    Writer w;
    w.i32(message.conditionId);
    w.text(message.reason);
    return Frame{MessageType::ConfigReject, std::move(w.bytes)};
}

Frame
encodeConfigRemove(const ConfigRemoveMessage &message)
{
    Writer w;
    w.i32(message.conditionId);
    return Frame{MessageType::ConfigRemove, std::move(w.bytes)};
}

Frame
encodeWakeUp(const WakeUpMessage &message)
{
    Writer w;
    w.bytes.reserve(4 + 8 + 8 + 4 + 8 * message.rawData.size());
    w.i32(message.conditionId);
    w.f64(message.timestamp);
    w.f64(message.triggerValue);
    w.f64s(message.rawData);
    return Frame{MessageType::WakeUp, std::move(w.bytes)};
}

Frame
encodeHeartbeat(const HeartbeatMessage &message)
{
    Writer w;
    w.u32(message.bootId);
    w.f64(message.uptimeSeconds);
    return Frame{MessageType::Heartbeat, std::move(w.bytes)};
}

HeartbeatMessage
decodeHeartbeat(const Frame &frame)
{
    expectType(frame, MessageType::Heartbeat, "Heartbeat");
    Reader r(frame.payload);
    HeartbeatMessage message;
    message.bootId = r.u32();
    message.uptimeSeconds = r.f64();
    r.expectEnd();
    return message;
}

namespace {

Frame
encodeEpochOnly(MessageType type, std::uint32_t epoch)
{
    Writer w;
    w.u32(epoch);
    return Frame{type, std::move(w.bytes)};
}

std::uint32_t
decodeEpochOnly(const Frame &frame, MessageType type, const char *what)
{
    expectType(frame, type, what);
    Reader r(frame.payload);
    const std::uint32_t epoch = r.u32();
    r.expectEnd();
    return epoch;
}

} // namespace

Frame
encodeUpdateBegin(const UpdateBeginMessage &message)
{
    return encodeEpochOnly(MessageType::UpdateBegin, message.epoch);
}

UpdateBeginMessage
decodeUpdateBegin(const Frame &frame)
{
    return UpdateBeginMessage{
        decodeEpochOnly(frame, MessageType::UpdateBegin, "UpdateBegin")};
}

Frame
encodeUpdateCommit(const UpdateCommitMessage &message)
{
    return encodeEpochOnly(MessageType::UpdateCommit, message.epoch);
}

UpdateCommitMessage
decodeUpdateCommit(const Frame &frame)
{
    return UpdateCommitMessage{decodeEpochOnly(
        frame, MessageType::UpdateCommit, "UpdateCommit")};
}

Frame
encodeUpdateAbort(const UpdateAbortMessage &message)
{
    return encodeEpochOnly(MessageType::UpdateAbort, message.epoch);
}

UpdateAbortMessage
decodeUpdateAbort(const Frame &frame)
{
    return UpdateAbortMessage{
        decodeEpochOnly(frame, MessageType::UpdateAbort, "UpdateAbort")};
}

Frame
encodeUpdateAck(const UpdateAckMessage &message)
{
    Writer w;
    w.u32(message.epoch);
    w.bytes.push_back(static_cast<std::uint8_t>(message.status));
    w.text(message.reason);
    return Frame{MessageType::UpdateAck, std::move(w.bytes)};
}

UpdateAckMessage
decodeUpdateAck(const Frame &frame)
{
    expectType(frame, MessageType::UpdateAck, "UpdateAck");
    Reader r(frame.payload);
    UpdateAckMessage message;
    message.epoch = r.u32();
    const std::uint8_t status = r.u8();
    if (status > static_cast<std::uint8_t>(UpdateStatus::Stale))
        throw TransportError("UpdateAck status out of range");
    message.status = static_cast<UpdateStatus>(status);
    message.reason = r.text();
    r.expectEnd();
    return message;
}

Frame
encodeDeltaPush(const DeltaPushMessage &message)
{
    Writer w;
    w.u32(message.epoch);
    w.i32(message.conditionId);
    w.u32(static_cast<std::uint32_t>(message.channelNames.size()));
    for (const std::string &name : message.channelNames)
        w.text(name);
    w.u32(static_cast<std::uint32_t>(message.entries.size()));
    for (const DeltaNodeEntry &entry : message.entries) {
        w.bytes.push_back(entry.reused ? 1 : 0);
        if (entry.reused) {
            for (int i = 0; i < 8; ++i)
                w.bytes.push_back(static_cast<std::uint8_t>(
                    (entry.keyHash >> (8 * i)) & 0xFF));
            continue;
        }
        w.text(entry.algorithm);
        w.f64s(entry.params);
        w.u32(static_cast<std::uint32_t>(entry.inputs.size()));
        for (std::int32_t ref : entry.inputs)
            w.i32(ref);
    }
    w.u32(message.outEntry);
    return Frame{MessageType::DeltaPush, std::move(w.bytes)};
}

DeltaPushMessage
decodeDeltaPush(const Frame &frame)
{
    expectType(frame, MessageType::DeltaPush, "DeltaPush");
    Reader r(frame.payload);
    DeltaPushMessage message;
    message.epoch = r.u32();
    message.conditionId = r.i32();
    // Smallest wire items: a name is its 4-byte length; an entry is
    // a flag and an 8-byte hash reference.
    const std::uint32_t channels = r.count(4);
    message.channelNames.reserve(channels);
    for (std::uint32_t i = 0; i < channels; ++i)
        message.channelNames.push_back(r.text());
    const std::uint32_t count = r.count(1 + 8);
    message.entries.reserve(count);
    for (std::uint32_t i = 0; i < count; ++i) {
        DeltaNodeEntry entry;
        entry.reused = r.u8() != 0;
        if (entry.reused) {
            for (int b = 0; b < 8; ++b)
                entry.keyHash |= static_cast<std::uint64_t>(r.u8())
                                 << (8 * b);
        } else {
            entry.algorithm = r.text();
            entry.params = r.f64s();
            const std::uint32_t inputs = r.count(4);
            entry.inputs.reserve(inputs);
            for (std::uint32_t in = 0; in < inputs; ++in) {
                const std::int32_t ref = r.i32();
                // A shipped node may only consume channels or entries
                // that precede it — the wire order is topological.
                if (ref >= static_cast<std::int32_t>(i))
                    throw TransportError(
                        "DeltaPush entry references a later entry");
                if (ref < 0 &&
                    static_cast<std::uint32_t>(-(ref + 1)) >= channels)
                    throw TransportError(
                        "DeltaPush channel reference out of range");
                entry.inputs.push_back(ref);
            }
        }
        message.entries.push_back(std::move(entry));
    }
    message.outEntry = r.u32();
    if (message.outEntry >= count)
        throw TransportError("DeltaPush OUT entry out of range");
    r.expectEnd();
    return message;
}

std::size_t
deltaPushWireBytes(const DeltaPushMessage &message)
{
    // SOF+type+len+crc (6) + the encoded payload.
    return 6 + encodeDeltaPush(message).payload.size();
}

std::size_t
configPushWireBytes(const ConfigPushMessage &message)
{
    // SOF+type+len+crc (6) + id (4) + text length prefix (4) + text.
    return 6 + 4 + 4 + message.ilText.size();
}

std::size_t
sensorBatchWireBytes(std::size_t sample_count,
                     std::size_t samples_per_frame)
{
    if (samples_per_frame == 0)
        throw TransportError("samples_per_frame must be positive");
    // Per frame: SOF+type+len+crc (6) + header (4+8+8+8+4 = 32) +
    // 2 bytes per sample.
    const std::size_t frames =
        (sample_count + samples_per_frame - 1) / samples_per_frame;
    return frames * (6 + 32) + sample_count * 2;
}

bool
canStreamContinuously(double usable_bits_per_second,
                      double sample_rate_hz)
{
    const std::size_t per_second_bytes =
        sensorBatchWireBytes(static_cast<std::size_t>(sample_rate_hz));
    return static_cast<double>(per_second_bytes) * 8.0 <=
           usable_bits_per_second;
}

ConfigPushMessage
decodeConfigPush(const Frame &frame)
{
    expectType(frame, MessageType::ConfigPush, "ConfigPush");
    Reader r(frame.payload);
    ConfigPushMessage message;
    message.conditionId = r.i32();
    message.ilText = r.text();
    r.expectEnd();
    return message;
}

ConfigAckMessage
decodeConfigAck(const Frame &frame)
{
    expectType(frame, MessageType::ConfigAck, "ConfigAck");
    Reader r(frame.payload);
    ConfigAckMessage message;
    message.conditionId = r.i32();
    r.expectEnd();
    return message;
}

ConfigRejectMessage
decodeConfigReject(const Frame &frame)
{
    expectType(frame, MessageType::ConfigReject, "ConfigReject");
    Reader r(frame.payload);
    ConfigRejectMessage message;
    message.conditionId = r.i32();
    message.reason = r.text();
    r.expectEnd();
    return message;
}

ConfigRemoveMessage
decodeConfigRemove(const Frame &frame)
{
    expectType(frame, MessageType::ConfigRemove, "ConfigRemove");
    Reader r(frame.payload);
    ConfigRemoveMessage message;
    message.conditionId = r.i32();
    r.expectEnd();
    return message;
}

WakeUpMessage
decodeWakeUp(const Frame &frame)
{
    expectType(frame, MessageType::WakeUp, "WakeUp");
    Reader r(frame.payload);
    WakeUpMessage message;
    message.conditionId = r.i32();
    message.timestamp = r.f64();
    message.triggerValue = r.f64();
    message.rawData = r.f64s();
    r.expectEnd();
    return message;
}

} // namespace sidewinder::transport
