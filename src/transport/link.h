/**
 * @file
 * Simulated UART link with baud-rate timing and fault injection.
 *
 * Models the serial connection of the prototype (Section 3.4): a
 * byte pipe whose delivery time is bounded by the configured baud
 * rate. The paper notes the link "provides sufficient bandwidth to
 * support low bit-rate sensors"; bandwidthBitsPerSecond() lets callers
 * check that claim for their own sensor mix.
 */

#ifndef SIDEWINDER_TRANSPORT_LINK_H
#define SIDEWINDER_TRANSPORT_LINK_H

#include <cstdint>
#include <functional>
#include <span>
#include <vector>

#include "transport/frame.h"

namespace sidewinder::transport {

/**
 * One direction of a simulated UART connection.
 *
 * Bytes written with send() become available to receive() only after
 * the serialization delay implied by the baud rate (8N1 framing: 10
 * bit times per byte). An optional corruption hook lets tests flip
 * bits in transit to exercise the decoder's resynchronization.
 *
 * In-flight bytes and their delivery times sit in two contiguous
 * buffers read from a head index; receive() hands out a view into
 * them and send() compacts the consumed prefix away.
 */
class UartLink
{
  public:
    /** @param baud_rate Line rate in bits/second; must be positive. */
    explicit UartLink(double baud_rate);

    /** Queue @p bytes for transmission starting at time @p now. */
    void send(const std::vector<std::uint8_t> &bytes, double now);

    /** Queue an encoded frame for transmission at time @p now. */
    void sendFrame(const Frame &frame, double now);

    /**
     * Bytes fully delivered by time @p now, in order. The view points
     * into the link's buffer and stays valid until the next send() or
     * sendFrame() on this link.
     */
    std::span<const std::uint8_t> receive(double now);

    /**
     * True when a byte is due by @p now, i.e. exactly when receive()
     * would return a non-empty view. Pollers skip idle waves on it.
     */
    bool
    due(double now) const
    {
        return head < deliveryTime.size() &&
               isDue(deliveryTime[head], now);
    }

    /** Seconds needed to serialize @p byte_count bytes. */
    double transferSeconds(std::size_t byte_count) const;

    /** Usable payload bandwidth in bits/second (8 of every 10 bits). */
    double bandwidthBitsPerSecond() const { return baudRate * 0.8; }

    /**
     * Corruption hook: called once per send() with that send's bytes,
     * in order, which it may alter in place before they go on the
     * wire.
     */
    using Corruptor = std::function<void(std::span<std::uint8_t>)>;

    /**
     * Install a corruption hook. Installed by sim::armLink() from a
     * seeded FaultPlan so every corruption pattern is reproducible
     * (tests may also install ad-hoc hooks).
     */
    void setCorruptor(Corruptor corruptor) { corrupt = std::move(corruptor); }

    /**
     * Install a per-frame loss hook consulted by sendFrame(); when it
     * returns true the whole frame silently vanishes (models a TX
     * overrun or a receiver asleep during the burst). Raw send() calls
     * are not affected.
     */
    void
    setFrameDropper(std::function<bool()> dropper)
    {
        dropFrame = std::move(dropper);
    }

    /** Bytes the corruption hook actually changed so far. */
    std::size_t corruptedBytes() const { return corruptedCount; }

    /** Whole frames the loss hook swallowed so far. */
    std::size_t droppedFrames() const { return droppedFrameCount; }

    /** Bytes still in flight at time @p now. */
    std::size_t pendingBytes(double now) const;

    /**
     * Time the transmitter becomes free (i.e. when the last queued
     * byte finishes serializing). Lets a sender compute the true
     * delivery completion of a frame it just queued behind earlier
     * traffic — the reliable channel bases its ack deadlines on this.
     */
    double busyUntil() const { return lineBusyUntil; }

  private:
    /** A delivery time due by @p now (with a little float slack). */
    static bool
    isDue(double delivery_time, double now)
    {
        return delivery_time <= now + 1e-12;
    }

    /** Index one past the last byte due by @p now. */
    std::size_t dueEnd(double now) const;

    double baudRate;
    /** Time the transmitter becomes free again. */
    double lineBusyUntil = 0.0;
    /** Bytes on the wire (delivered or not) and their delivery
        times; entries before `head` have been received. */
    std::vector<std::uint8_t> wire;
    std::vector<double> deliveryTime;
    std::size_t head = 0;
    Corruptor corrupt;
    std::function<bool()> dropFrame;
    std::size_t corruptedCount = 0;
    std::size_t droppedFrameCount = 0;
};

/**
 * A full-duplex connection: the phone-side and hub-side endpoints the
 * sensor manager and hub runtime talk through.
 */
class LinkPair
{
  public:
    /** Create both directions at the same @p baud_rate. */
    explicit LinkPair(double baud_rate)
        : phoneToHubLink(baud_rate), hubToPhoneLink(baud_rate)
    {}

    /** Phone -> hub direction. */
    UartLink &phoneToHub() { return phoneToHubLink; }

    /** Hub -> phone direction. */
    UartLink &hubToPhone() { return hubToPhoneLink; }

  private:
    UartLink phoneToHubLink;
    UartLink hubToPhoneLink;
};

} // namespace sidewinder::transport

#endif // SIDEWINDER_TRANSPORT_LINK_H
