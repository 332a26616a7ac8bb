#include "transport/reliable.h"

#include <algorithm>
#include <utility>

#include "support/error.h"

namespace sidewinder::transport {

Frame
encodeReliableData(std::uint16_t seq, const Frame &inner,
                   std::uint32_t config_epoch)
{
    Frame frame;
    frame.type = MessageType::Reliable;
    frame.payload.reserve(7 + inner.payload.size());
    frame.payload.push_back(static_cast<std::uint8_t>(seq & 0xFF));
    frame.payload.push_back(static_cast<std::uint8_t>((seq >> 8) & 0xFF));
    for (int i = 0; i < 4; ++i)
        frame.payload.push_back(static_cast<std::uint8_t>(
            (config_epoch >> (8 * i)) & 0xFF));
    frame.payload.push_back(static_cast<std::uint8_t>(inner.type));
    frame.payload.insert(frame.payload.end(), inner.payload.begin(),
                         inner.payload.end());
    return frame;
}

ReliableData
decodeReliableData(const Frame &frame)
{
    if (frame.type != MessageType::Reliable)
        throw TransportError("frame is not a Reliable message");
    if (frame.payload.size() < 7)
        throw TransportError("Reliable payload truncated");
    ReliableData data;
    data.seq = static_cast<std::uint16_t>(
        frame.payload[0] |
        (static_cast<std::uint16_t>(frame.payload[1]) << 8));
    for (int i = 0; i < 4; ++i)
        data.configEpoch |=
            static_cast<std::uint32_t>(frame.payload[2 + i]) << (8 * i);
    data.inner.type = static_cast<MessageType>(frame.payload[6]);
    data.inner.payload.assign(frame.payload.begin() + 7,
                              frame.payload.end());
    return data;
}

Frame
encodeLinkAck(std::uint16_t seq)
{
    Frame frame;
    frame.type = MessageType::LinkAck;
    frame.payload = {static_cast<std::uint8_t>(seq & 0xFF),
                     static_cast<std::uint8_t>((seq >> 8) & 0xFF)};
    return frame;
}

std::uint16_t
decodeLinkAck(const Frame &frame)
{
    if (frame.type != MessageType::LinkAck)
        throw TransportError("frame is not a LinkAck message");
    if (frame.payload.size() != 2)
        throw TransportError("LinkAck payload must be 2 bytes");
    return static_cast<std::uint16_t>(
        frame.payload[0] |
        (static_cast<std::uint16_t>(frame.payload[1]) << 8));
}

std::size_t
reliableWireBytes(const Frame &inner)
{
    // SOF + type + len(2) + crc(2) outer framing, plus the seq(2) +
    // epoch(4) + inner-type(1) wrapper ahead of the inner payload.
    return 6 + 7 + inner.payload.size();
}

ReliableEndpoint::ReliableEndpoint(UartLink &tx, ReliableConfig config)
    : tx(tx), config(config), jitter(config.jitterSeed)
{
    if (!(config.ackTimeoutSeconds > 0.0))
        throw TransportError("ack timeout must be positive");
    if (config.maxAttempts == 0)
        throw TransportError("maxAttempts must be positive");
}

void
ReliableEndpoint::sendFrame(const Frame &inner, double now)
{
    if (queue.size() >= config.maxQueueDepth) {
        ++statistics.queueOverflows;
        return;
    }
    queue.push_back(Pending{inner, nextSeq++, localEpoch});
    if (!inFlight)
        transmitHead(now, /*is_retransmit=*/false);
}

void
ReliableEndpoint::transmitHead(double now, bool is_retransmit)
{
    const Pending &head = queue.front();
    tx.sendFrame(encodeReliableData(head.seq, head.inner, head.epoch),
                 now);
    inFlight = true;
    ++attempts;
    if (is_retransmit)
        ++statistics.retransmits;
    else
        ++statistics.framesSent;

    // Exponential backoff on the timeout, capped and jittered. The
    // deadline starts when the line drains (busyUntil), not at `now`:
    // a 1.6 KB wake-up frame takes ~140 ms at 115200 baud, far longer
    // than the base timeout, and queued traffic ahead of us delays our
    // bytes further still.
    double timeout = config.ackTimeoutSeconds;
    for (std::size_t i = 1; i < attempts; ++i)
        timeout = std::min(timeout * config.backoffFactor,
                           config.maxBackoffSeconds);
    timeout *= 1.0 + config.jitterFraction * jitter.uniform(0.0, 1.0);
    deadline = tx.busyUntil() + timeout;
}

std::optional<Frame>
ReliableEndpoint::onFrame(const Frame &frame, double now,
                          DeliveryVerdict *verdict)
{
    DeliveryVerdict scratch;
    DeliveryVerdict &out = verdict ? *verdict : scratch;

    if (frame.type == MessageType::LinkAck) {
        out = DeliveryVerdict::ControlAck;
        const std::uint16_t seq = decodeLinkAck(frame);
        if (inFlight && seq == queue.front().seq) {
            ++statistics.acksReceived;
            queue.pop_front();
            inFlight = false;
            attempts = 0;
            if (!queue.empty())
                transmitHead(now, /*is_retransmit=*/false);
        } else {
            ++statistics.staleAcks;
        }
        return std::nullopt;
    }

    if (frame.type == MessageType::Reliable) {
        ReliableData data = decodeReliableData(frame);
        // Always ack — the sender may have missed our previous ack,
        // and a stale-epoch sender must stop retransmitting too.
        tx.sendFrame(encodeLinkAck(data.seq), now);
        ++statistics.acksSent;
        if (data.configEpoch != 0 && data.configEpoch < minimumEpoch) {
            // A delayed retransmit from before an A/B swap. The
            // sequence-number dedup below cannot be trusted to catch
            // it (reset() clears that state on recovery), so the
            // epoch stamp is the backstop against resurrecting
            // superseded configuration.
            out = DeliveryVerdict::StaleEpoch;
            ++statistics.staleEpochFrames;
            return std::nullopt;
        }
        if (haveRemoteSeq && data.seq == lastRemoteSeq) {
            out = DeliveryVerdict::Duplicate;
            ++statistics.duplicatesDropped;
            return std::nullopt;
        }
        haveRemoteSeq = true;
        lastRemoteSeq = data.seq;
        out = DeliveryVerdict::Delivered;
        return std::move(data.inner);
    }

    out = DeliveryVerdict::PassThrough;
    return frame;
}

void
ReliableEndpoint::tick(double now)
{
    if (!due(now))
        return;
    if (attempts >= config.maxAttempts) {
        // Give up on this frame: drop it, surface the verdict, and
        // keep best-effort servicing the rest of the queue rather
        // than wedging the channel.
        ++statistics.framesLost;
        down = true;
        queue.pop_front();
        inFlight = false;
        attempts = 0;
        if (!queue.empty())
            transmitHead(now, /*is_retransmit=*/false);
        return;
    }
    transmitHead(now, /*is_retransmit=*/true);
}

void
ReliableEndpoint::reset()
{
    statistics.flushedOnReset += queue.size();
    queue.clear();
    inFlight = false;
    attempts = 0;
    deadline = 0.0;
    down = false;
    // A rebooted peer restarts its sequence numbers at 0; stale dedup
    // state would silently swallow its first frame.
    haveRemoteSeq = false;
}

} // namespace sidewinder::transport
