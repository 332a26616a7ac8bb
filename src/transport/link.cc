#include "transport/link.h"

#include <algorithm>

#include "support/error.h"

namespace sidewinder::transport {

UartLink::UartLink(double baud_rate) : baudRate(baud_rate)
{
    if (!(baud_rate > 0.0))
        throw TransportError("baud rate must be positive");
}

double
UartLink::transferSeconds(std::size_t byte_count) const
{
    // 8N1: start bit + 8 data bits + stop bit per byte.
    return static_cast<double>(byte_count) * 10.0 / baudRate;
}

void
UartLink::send(const std::vector<std::uint8_t> &bytes, double now)
{
    // Drop what receive() already handed out; its view expires here.
    const auto received = static_cast<std::ptrdiff_t>(head);
    wire.erase(wire.begin(), wire.begin() + received);
    deliveryTime.erase(deliveryTime.begin(),
                       deliveryTime.begin() + received);
    head = 0;

    const std::size_t first = wire.size();
    wire.insert(wire.end(), bytes.begin(), bytes.end());
    if (corrupt) {
        const std::span<std::uint8_t> sent(wire.data() + first,
                                           bytes.size());
        corrupt(sent);
        // Count into a local: the byte views may alias the member,
        // which would make the compiler store it on every byte.
        std::size_t changed = 0;
        for (std::size_t i = 0; i < bytes.size(); ++i)
            changed += sent[i] != bytes[i];
        corruptedCount += changed;
    }

    // A running sum per byte, not start + k * byte time: the two
    // round differently, and delivery times are part of the model.
    const double byte_seconds = transferSeconds(1);
    double start = std::max(now, lineBusyUntil);
    deliveryTime.resize(wire.size());
    for (std::size_t i = first; i < wire.size(); ++i) {
        start += byte_seconds;
        deliveryTime[i] = start;
    }
    lineBusyUntil = start;
}

void
UartLink::sendFrame(const Frame &frame, double now)
{
    if (dropFrame && dropFrame()) {
        ++droppedFrameCount;
        return;
    }
    send(encodeFrame(frame), now);
}

std::size_t
UartLink::dueEnd(double now) const
{
    // Delivery times never decrease: each send starts at
    // max(now, lineBusyUntil) and adds a positive byte time per byte.
    // So the due bytes are a prefix of the undelivered ones, and a
    // binary search finds its end.
    const auto end = std::partition_point(
        deliveryTime.begin() + static_cast<std::ptrdiff_t>(head),
        deliveryTime.end(),
        [now](double delivery_time) { return isDue(delivery_time, now); });
    return static_cast<std::size_t>(end - deliveryTime.begin());
}

std::span<const std::uint8_t>
UartLink::receive(double now)
{
    const std::size_t first = head;
    head = dueEnd(now);
    return {wire.data() + first, head - first};
}

std::size_t
UartLink::pendingBytes(double now) const
{
    return deliveryTime.size() - dueEnd(now);
}

} // namespace sidewinder::transport
