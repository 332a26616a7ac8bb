/**
 * @file
 * Reliable transport over the framed UART link.
 *
 * The paper hangs the whole architecture on a thin serial connection
 * (Section 3.4) but never discusses what happens when that link flips
 * a byte or loses a frame — real hub deployments treat both as the
 * common case. This layer adds a sequence-numbered, ack/retransmit
 * channel on top of the existing Frame/UartLink machinery:
 *
 *  - every application frame travels inside a MessageType::Reliable
 *    wrapper carrying a 16-bit sequence number (the outer frame's
 *    CRC16 covers the wrapped bytes, so no second checksum is needed);
 *  - the receiver acknowledges each sequence with a LinkAck frame and
 *    suppresses duplicates, giving at-least-once delivery with
 *    exactly-once *application* delivery under stop-and-wait;
 *  - the sender retransmits on ack timeout with bounded exponential
 *    backoff plus seeded jitter (support/rng.h — deterministic runs),
 *    and after a configurable number of attempts drops the frame and
 *    latches a link-down verdict for the supervisor to act on.
 *
 * Stop-and-wait (one frame in flight, a small bounded queue behind
 * it) is deliberate: it matches the memory budget of the MSP430-class
 * hubs the paper targets and naturally bounds link backlog, so
 * heartbeats interleaved on the same wire stay timely.
 *
 * Endpoints are symmetric: each side owns one for its transmit
 * direction. Frames that are not Reliable/LinkAck pass through
 * onFrame() untouched, so a reliable sender interoperates with a
 * legacy receiver loop and vice versa.
 */

#ifndef SIDEWINDER_TRANSPORT_RELIABLE_H
#define SIDEWINDER_TRANSPORT_RELIABLE_H

#include <cstdint>
#include <deque>
#include <optional>

#include "support/rng.h"
#include "transport/frame.h"
#include "transport/link.h"

namespace sidewinder::transport {

/** Tuning knobs of one reliable endpoint. */
struct ReliableConfig
{
    /**
     * Grace period after the frame finishes serializing before the
     * first retransmission; must cover the ack's return trip.
     */
    double ackTimeoutSeconds = 0.05;
    /** Timeout multiplier per retransmission (exponential backoff). */
    double backoffFactor = 2.0;
    /** Ceiling of the backed-off timeout, seconds. */
    double maxBackoffSeconds = 0.8;
    /** Extra uniform-random fraction added to every timeout. */
    double jitterFraction = 0.1;
    /** Transmissions per frame before giving up (first + retries). */
    std::size_t maxAttempts = 8;
    /** Frames queued behind the in-flight one before tail drop. */
    std::size_t maxQueueDepth = 64;
    /** Seed of the deterministic jitter stream. */
    std::uint64_t jitterSeed = 0x51DE314D;
};

/** Counters one endpoint accumulates (never reset except reset()). */
struct ReliableStats
{
    /** First transmissions of distinct frames. */
    std::size_t framesSent = 0;
    /** Retransmissions after an ack timeout. */
    std::size_t retransmits = 0;
    /** Frames abandoned after maxAttempts transmissions. */
    std::size_t framesLost = 0;
    /** Frames tail-dropped because the queue was full. */
    std::size_t queueOverflows = 0;
    /** Frames flushed undelivered by reset() (link/hub recovery). */
    std::size_t flushedOnReset = 0;
    /** Received duplicates suppressed (their ack was re-sent). */
    std::size_t duplicatesDropped = 0;
    std::size_t acksSent = 0;
    std::size_t acksReceived = 0;
    /** Acks that matched no in-flight sequence (stale/duplicate). */
    std::size_t staleAcks = 0;
    /**
     * Delivered-but-refused frames from a previous config epoch — a
     * delayed retransmit that arrived after an A/B swap (or a hub
     * reboot cleared the duplicate-detection state). Acked so the
     * sender stops retrying, but never passed to the application.
     */
    std::size_t staleEpochFrames = 0;
};

/** What ReliableEndpoint::onFrame() decided about one frame. */
enum class DeliveryVerdict {
    /** Fresh reliable data; the unwrapped inner frame was returned. */
    Delivered,
    /** A LinkAck — pure transport control, nothing to deliver. */
    ControlAck,
    /** Retransmit of the last delivered sequence; suppressed. */
    Duplicate,
    /** Data stamped with a config epoch older than the receiver's
        committed one; acked and refused (stats().staleEpochFrames). */
    StaleEpoch,
    /** Not a Reliable/LinkAck frame; passed through untouched. */
    PassThrough,
};

/**
 * Wrap @p inner (type + payload) under sequence number @p seq,
 * stamped with @p config_epoch (0 = unversioned, never filtered).
 */
Frame encodeReliableData(std::uint16_t seq, const Frame &inner,
                         std::uint32_t config_epoch = 0);

/** Unwrapped contents of one MessageType::Reliable frame. */
struct ReliableData
{
    std::uint16_t seq = 0;
    /** Sender's config epoch at transmission time (0 = unversioned). */
    std::uint32_t configEpoch = 0;
    Frame inner;
};

/**
 * Unwrap a MessageType::Reliable frame.
 * @throws TransportError when the payload is malformed.
 */
ReliableData decodeReliableData(const Frame &frame);

/** Acknowledgement of sequence @p seq. */
Frame encodeLinkAck(std::uint16_t seq);

/** @throws TransportError when the payload is malformed. */
std::uint16_t decodeLinkAck(const Frame &frame);

/**
 * Wire bytes of @p inner when shipped reliably (outer framing + the
 * sequence/type wrapper). Used by swlint's SW202 re-push cost note.
 */
std::size_t reliableWireBytes(const Frame &inner);

/**
 * One side's reliable sender/receiver.
 *
 * The owner decodes frames from its receive direction as before and
 * routes every decoded frame through onFrame(); it sends guaranteed
 * frames through sendFrame() instead of writing the link directly,
 * and calls tick() once per simulation step to drive retransmission
 * timers.
 */
class ReliableEndpoint
{
  public:
    /** @param tx The transmit direction this endpoint owns. */
    explicit ReliableEndpoint(UartLink &tx, ReliableConfig config = {});

    /**
     * Queue @p inner for guaranteed delivery. Tail-drops (and counts)
     * when the queue is full or the link is latched down.
     */
    void sendFrame(const Frame &inner, double now);

    /**
     * Process one frame decoded from the receive direction.
     *
     * @return the unwrapped inner frame when @p frame carried fresh
     *     reliable data; std::nullopt for acks, duplicates, and
     *     stale-epoch data; the frame itself, untouched, for every
     *     other type (pass-through for senders not using the reliable
     *     layer). @p verdict, when given, reports which of those it
     *     was — callers that must distinguish a stale-epoch refusal
     *     from a plain duplicate (metrics, tests) read it.
     * @throws TransportError on malformed Reliable/LinkAck payloads
     *     (possible only via a CRC collision or a buggy sender).
     */
    std::optional<Frame> onFrame(const Frame &frame, double now,
                                 DeliveryVerdict *verdict = nullptr);

    /** Drive retransmission/give-up timers up to time @p now. */
    void tick(double now);

    /**
     * True when tick(@p now) would act: a frame is in flight and its
     * ack deadline has passed.
     */
    bool
    due(double now) const
    {
        return inFlight && !(now < deadline);
    }

    /**
     * True once a frame exhausted maxAttempts — the link-down verdict.
     * Latched until reset(); the endpoint keeps best-effort delivering
     * subsequent frames meanwhile.
     */
    bool linkDown() const { return down; }

    /** Frames queued (including the in-flight one). */
    std::size_t queuedFrames() const { return queue.size(); }

    const ReliableStats &stats() const { return statistics; }

    /**
     * Stamp subsequent outgoing data frames with @p epoch (the
     * sender's committed config epoch). Frames already queued keep the
     * epoch they were queued under — a retransmit must stay
     * byte-identical to its first transmission.
     */
    void setLocalEpoch(std::uint32_t epoch) { localEpoch = epoch; }

    /**
     * Refuse incoming data frames stamped with a nonzero config epoch
     * below @p epoch (see ReliableStats::staleEpochFrames). Receivers
     * raise this as they commit A/B swaps; it survives reset(), which
     * is exactly when the duplicate-detection state that would
     * otherwise catch a delayed retransmit is lost.
     */
    void setMinimumEpoch(std::uint32_t epoch) { minimumEpoch = epoch; }

    /**
     * Forget all transmission state: flush the queue (counted in
     * stats().flushedOnReset), clear the link-down latch and the
     * remote duplicate-detection state. Called by supervisors after a
     * hub reboot or link recovery, right before re-pushing state.
     */
    void reset();

  private:
    void transmitHead(double now, bool is_retransmit);

    UartLink &tx;
    ReliableConfig config;
    Rng jitter;

    struct Pending
    {
        Frame inner;
        std::uint16_t seq = 0;
        /** Epoch stamped at queue time (retransmits stay identical). */
        std::uint32_t epoch = 0;
    };
    /** front() is the in-flight frame when inFlight is set. */
    std::deque<Pending> queue;
    bool inFlight = false;
    /** Transmissions of the head frame so far. */
    std::size_t attempts = 0;
    /** Ack deadline of the in-flight frame. */
    double deadline = 0.0;
    std::uint16_t nextSeq = 0;
    bool haveRemoteSeq = false;
    std::uint16_t lastRemoteSeq = 0;
    bool down = false;
    std::uint32_t localEpoch = 0;
    std::uint32_t minimumEpoch = 0;
    ReliableStats statistics;
};

} // namespace sidewinder::transport

#endif // SIDEWINDER_TRANSPORT_RELIABLE_H
