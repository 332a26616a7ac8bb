#include "transport/crc.h"

namespace sidewinder::transport {

std::uint16_t
crc16Update(std::uint16_t crc, std::span<const std::uint8_t> data)
{
    for (std::uint8_t byte : data)
        crc = crc16Step(crc, byte);
    return crc;
}

} // namespace sidewinder::transport
