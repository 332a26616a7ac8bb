/**
 * @file
 * Framing layer of the phone-to-hub serial protocol.
 *
 * The prototype in the paper connects the Nexus 4 and the
 * microcontroller "over the UART port made available by the Nexus 4
 * debugging interface" (Section 3.4). A raw UART is an unreliable byte
 * pipe, so every message travels inside a frame:
 *
 *     SOF(0x7E) | type(1) | length(2, LE) | payload | crc16(2, BE)
 *
 * The decoder resynchronizes after any CRC or length violation by
 * rescanning the failed candidate's bytes for embedded frames (an SOF
 * byte inside noise or a corrupted header must not swallow the intact
 * frame that follows), counting the bytes it had to discard. Where a
 * byte arrives — alone, in a span, or split across calls — never
 * changes what the decoder yields or counts. Because a
 * corrupted length field can promise more payload than will ever
 * arrive, receivers poll tickStall() with their clock so a wedged
 * candidate is abandoned instead of deafening the link.
 */

#ifndef SIDEWINDER_TRANSPORT_FRAME_H
#define SIDEWINDER_TRANSPORT_FRAME_H

#include <cstdint>
#include <deque>
#include <optional>
#include <span>
#include <vector>

namespace sidewinder::transport {

/** Message categories carried in a frame header. */
enum class MessageType : std::uint8_t {
    /** Phone -> hub: install a wake-up condition (IL text payload). */
    ConfigPush = 1,
    /** Hub -> phone: condition installed. */
    ConfigAck = 2,
    /** Hub -> phone: condition rejected (reason text payload). */
    ConfigReject = 3,
    /** Phone -> hub: remove a previously installed condition. */
    ConfigRemove = 4,
    /** Hub -> phone: wake-up with condition id and raw sensor data. */
    WakeUp = 5,
    /**
     * Hub -> phone: a batch of buffered sensor samples. Nothing sends
     * this type any more; the number stays so the decoder accepts the
     * same type range, and sensorBatchWireBytes() still prices it.
     */
    SensorBatch = 6,
    /**
     * Either direction: reliable-transport data — a 16-bit sequence
     * number followed by the wrapped inner frame (transport/reliable.h).
     */
    Reliable = 7,
    /** Either direction: acknowledgement of one Reliable sequence. */
    LinkAck = 8,
    /**
     * Hub -> phone: periodic liveness beacon carrying the hub's boot
     * epoch, so the phone can detect both silence (hub dead or link
     * down) and a restart that lost all engine state.
     */
    Heartbeat = 9,
    /**
     * Phone -> hub: open a live-reconfiguration transaction at a new
     * config epoch. Subsequent DeltaPush frames stage plans in the
     * hub's shadow (B) slot while the live (A) plans keep executing.
     */
    UpdateBegin = 10,
    /**
     * Phone -> hub: one condition's plan as a delta — nodes whose
     * canonical shareKey is already live on the hub travel as 8-byte
     * hash references instead of full statements (transport/messages.h).
     */
    DeltaPush = 11,
    /**
     * Phone -> hub: atomically swap every staged plan live (the A/B
     * commit) and bump the hub's config epoch.
     */
    UpdateCommit = 12,
    /**
     * Phone -> hub: abandon the open transaction (e.g. the phone saw
     * the hub's heartbeats vanish mid-update and will retry later).
     */
    UpdateAbort = 13,
    /**
     * Hub -> phone: outcome of an update transaction — committed,
     * rolled back (reason text), or stale (epoch already superseded).
     */
    UpdateAck = 14,
};

/** Start-of-frame marker byte. */
constexpr std::uint8_t frameSof = 0x7E;

/**
 * Largest payload a frame may carry. Kept close to the largest frame
 * the system ships (a WakeUp with raw history is ~1.6 KB; a
 * 1024-sample SensorBatch would be ~2.1 KB): the decoder rejects any
 * claimed length above this, so a corrupted header can hold the link
 * hostage for at most ~0.36 s at 115200 baud before the CRC check
 * fails the candidate and resynchronization rescans its bytes.
 */
constexpr std::size_t maxPayloadBytes = 4096;

/**
 * How long a receiver lets one frame candidate sit unfinished before
 * tickStall() abandons it — comfortably above the transfer time of
 * the largest frame the system actually ships at 115200 baud, far
 * below the supervisor's death-detection threshold.
 */
constexpr double frameStallTimeoutSeconds = 1.0;

/** One decoded (or to-be-encoded) frame. */
struct Frame
{
    MessageType type = MessageType::ConfigPush;
    std::vector<std::uint8_t> payload;

    bool
    operator==(const Frame &other) const
    {
        return type == other.type && payload == other.payload;
    }
};

/**
 * Encode @p frame into its wire bytes.
 * @throws TransportError when the payload exceeds maxPayloadBytes.
 */
std::vector<std::uint8_t> encodeFrame(const Frame &frame);

/**
 * Streaming decoder: feed raw bytes, poll for completed frames.
 * Corrupt input never throws — bad bytes are skipped and counted so a
 * noisy link degrades instead of wedging the hub.
 */
class FrameDecoder
{
  public:
    /** Feed a span of received bytes; parsed in place. */
    void feed(std::span<const std::uint8_t> bytes);

    /** Feed received bytes held in a vector. */
    void
    feed(const std::vector<std::uint8_t> &bytes)
    {
        feed(std::span<const std::uint8_t>(bytes));
    }

    /** Feed one received byte. */
    void feed(std::uint8_t byte) { feed(std::span(&byte, 1)); }

    /** Retrieve the next completed frame, if any. */
    std::optional<Frame> poll();

    /** Bytes discarded during resynchronization so far. */
    std::size_t droppedBytes() const { return dropped; }

    /** True while partway through a frame candidate. */
    bool midFrame() const { return state != State::Sync; }

    /**
     * Abandon the current frame candidate (its SOF was presumably
     * noise) and rescan its remaining bytes for embedded frames. Safe
     * to call any time; a no-op between frames.
     */
    void resync();

    /**
     * Stall watchdog: resync() a candidate that has been pending since
     * before @p now - frameStallTimeoutSeconds. Receivers call this
     * from their poll loop so a corrupted length field that promises
     * more payload than will ever arrive cannot deafen the link for
     * the rest of the run.
     */
    void tickStall(double now);

    /**
     * True when poll() has a frame waiting or tickStall(@p now) would
     * change the decoder's state. When it is false and no bytes
     * arrive, a receiver's feed, tickStall and poll calls are all
     * no-ops, so it may skip them.
     */
    bool
    due(double now) const
    {
        return !ready.empty() || stallStep(now) != StallStep::None;
    }

  private:
    enum class State { Sync, Type, LenLo, LenHi, Payload, CrcHi, CrcLo };

    /** The one change a tickStall() call makes, if any. */
    enum class StallStep {
        /** Nothing: no candidate, or one not yet timed out. */
        None,
        /** Forget the mark a finished candidate left behind. */
        Clear,
        /** Start timing a candidate not seen by tickStall() yet. */
        Observe,
        /** Abandon the timed-out candidate. */
        Resync,
    };

    /** What tickStall(@p now) would do. */
    StallStep
    stallStep(double now) const
    {
        // A negative stallSince is no mark.
        if (state == State::Sync)
            return stallSince < 0.0 ? StallStep::None : StallStep::Clear;
        if (stallSince < 0.0 || stallObservedEpoch != candidateEpoch)
            return StallStep::Observe;
        return now - stallSince > frameStallTimeoutSeconds
                   ? StallStep::Resync
                   : StallStep::None;
    }

    std::size_t parse(std::span<const std::uint8_t> in, bool &failed);
    void fail();

    State state = State::Sync;
    std::size_t expected = 0;
    std::uint16_t crcAccum = 0;
    std::size_t dropped = 0;
    std::deque<Frame> ready;
    /** Bytes of the current candidate, SOF included; a completed
        frame's payload is sliced from here. */
    std::vector<std::uint8_t> raw;
    /** Failed candidates' bytes awaiting a rescan ahead of the
        unconsumed input, from rescanPos on; empty between calls. */
    std::vector<std::uint8_t> rescan;
    std::size_t rescanPos = 0;
    /** Candidates opened so far; identifies the stalled one. */
    std::uint64_t candidateEpoch = 0;
    std::uint64_t stallObservedEpoch = 0;
    double stallSince = -1.0;
};

} // namespace sidewinder::transport

#endif // SIDEWINDER_TRANSPORT_FRAME_H
