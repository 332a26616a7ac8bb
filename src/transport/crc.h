/**
 * @file
 * CRC-16/CCITT-FALSE checksum used to protect frames on the
 * phone-to-hub serial link.
 */

#ifndef SIDEWINDER_TRANSPORT_CRC_H
#define SIDEWINDER_TRANSPORT_CRC_H

#include <array>
#include <cstdint>
#include <span>

namespace sidewinder::transport {

namespace detail {

/** crc16Step's lookup table: entry b is the CRC register after
    shifting b << 8 through eight steps of poly 0x1021. */
inline constexpr std::array<std::uint16_t, 256> crc16Table = [] {
    std::array<std::uint16_t, 256> table{};
    for (unsigned b = 0; b < 256; ++b) {
        unsigned crc = b << 8;
        for (int bit = 0; bit < 8; ++bit)
            crc = crc & 0x8000 ? (crc << 1) ^ 0x1021 : crc << 1;
        table[b] = static_cast<std::uint16_t>(crc);
    }
    return table;
}();

} // namespace detail

/** Incremental form: fold @p byte into a running @p crc. */
constexpr std::uint16_t
crc16Step(std::uint16_t crc, std::uint8_t byte)
{
    return static_cast<std::uint16_t>(
        (crc << 8) ^ detail::crc16Table[(crc >> 8) ^ byte]);
}

/** Fold every byte of @p data, in order, into a running @p crc. */
std::uint16_t crc16Update(std::uint16_t crc,
                          std::span<const std::uint8_t> data);

/** CRC-16/CCITT-FALSE (poly 0x1021, init 0xFFFF) of @p data. */
inline std::uint16_t
crc16(std::span<const std::uint8_t> data)
{
    return crc16Update(0xFFFF, data);
}

} // namespace sidewinder::transport

#endif // SIDEWINDER_TRANSPORT_CRC_H
