/**
 * @file
 * Fixed-capacity ring buffer.
 *
 * Used by the hub runtime to keep the most recent raw sensor samples so
 * they can be handed to the application on a wake-up (Section 3.8 of the
 * paper: "Our current implementation passes a buffer of raw sensor data
 * to the application"), and by streaming DSP kernels for their windows.
 */

#ifndef SIDEWINDER_SUPPORT_RING_BUFFER_H
#define SIDEWINDER_SUPPORT_RING_BUFFER_H

#include <algorithm>
#include <cstddef>
#include <vector>

#include "support/error.h"

namespace sidewinder {

/**
 * A bounded FIFO that overwrites its oldest element when full.
 *
 * Indexing is oldest-first: operator[](0) is the oldest retained
 * element, operator[](size()-1) the newest.
 */
template <typename T>
class RingBuffer
{
  public:
    /** Create a buffer retaining at most @p capacity elements. */
    explicit RingBuffer(std::size_t capacity)
        : storage(capacity), head(0), count(0)
    {
        if (capacity == 0)
            throw ConfigError("RingBuffer capacity must be positive");
    }

    /** Append @p value, evicting the oldest element if already full. */
    void
    push(const T &value)
    {
        // head < capacity and count <= capacity, so one conditional
        // subtract replaces the modulo (an integer divide on what is
        // the hottest loop of the sample path).
        std::size_t tail = head + count;
        if (tail >= storage.size())
            tail -= storage.size();
        storage[tail] = value;
        if (count == storage.size()) {
            if (++head == storage.size())
                head = 0;
        } else {
            ++count;
        }
    }

    /**
     * Append @p n values in order: the same contents as @p n push()
     * calls, written as the last min(@p n, capacity()) values in at
     * most two copies.
     */
    void
    append(const T *values, std::size_t n)
    {
        const std::size_t cap = storage.size();
        if (n >= cap) {
            // Only the newest cap values survive: lay them out from
            // slot 0, oldest first.
            std::copy(values + (n - cap), values + n, storage.begin());
            head = 0;
            count = cap;
            return;
        }
        std::size_t tail = head + count;
        if (tail >= cap)
            tail -= cap;
        const std::size_t first = std::min(n, cap - tail);
        std::copy(values, values + first, storage.begin() + tail);
        std::copy(values + first, values + n, storage.begin());
        if (count + n > cap) {
            // Full: the oldest count + n - cap values were overwritten.
            head += count + n - cap;
            if (head >= cap)
                head -= cap;
            count = cap;
        } else {
            count += n;
        }
    }

    /** Number of elements currently retained. */
    std::size_t size() const { return count; }

    /** Maximum number of retained elements. */
    std::size_t capacity() const { return storage.size(); }

    /** True when no elements are retained. */
    bool empty() const { return count == 0; }

    /** True when the next push will evict the oldest element. */
    bool full() const { return count == storage.size(); }

    /** Element @p i counted from the oldest retained element. */
    const T &
    operator[](std::size_t i) const
    {
        if (i >= count)
            throw InternalError("RingBuffer index out of range");
        std::size_t slot = head + i;
        if (slot >= storage.size())
            slot -= storage.size();
        return storage[slot];
    }

    /** Oldest retained element. */
    const T &front() const { return (*this)[0]; }

    /** Newest retained element. */
    const T &back() const { return (*this)[count - 1]; }

    /** Drop all retained elements. */
    void
    clear()
    {
        head = 0;
        count = 0;
    }

    /** Copy the retained elements, oldest first, into a vector. */
    std::vector<T>
    snapshot() const
    {
        std::vector<T> out;
        out.reserve(count);
        for (std::size_t i = 0; i < count; ++i)
            out.push_back((*this)[i]);
        return out;
    }

  private:
    std::vector<T> storage;
    std::size_t head;
    std::size_t count;
};

} // namespace sidewinder

#endif // SIDEWINDER_SUPPORT_RING_BUFFER_H
