#include "transport/crc.h"

#include <cstddef>

namespace sidewinder::transport {

namespace {

/**
 * Slicing-by-8 tables: entry b of table k is the register after b is
 * folded into a zero register and then k zero bytes follow. The CRC is
 * linear, so eight bytes fold into the register as the XOR of one
 * entry per byte, each byte's table its distance from the end, and the
 * register's two bytes join the first two.
 */
constexpr auto crc16Slices = [] {
    std::array<std::array<std::uint16_t, 256>, 8> tables{};
    tables[0] = detail::crc16Table;
    for (std::size_t k = 1; k < tables.size(); ++k)
        for (unsigned b = 0; b < 256; ++b)
            tables[k][b] = crc16Step(tables[k - 1][b], 0);
    return tables;
}();

} // namespace

std::uint16_t
crc16Update(std::uint16_t crc, std::span<const std::uint8_t> data)
{
    const auto &t = crc16Slices;
    const std::uint8_t *p = data.data();
    std::size_t left = data.size();
    for (; left >= 8; left -= 8, p += 8)
        crc = static_cast<std::uint16_t>(
            t[7][(crc >> 8) ^ p[0]] ^ t[6][(crc & 0xFF) ^ p[1]] ^
            t[5][p[2]] ^ t[4][p[3]] ^ t[3][p[4]] ^ t[2][p[5]] ^
            t[1][p[6]] ^ t[0][p[7]]);
    for (; left > 0; --left, ++p)
        crc = crc16Step(crc, *p);
    return crc;
}

} // namespace sidewinder::transport
