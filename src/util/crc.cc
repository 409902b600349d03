#include "util/crc.h"

#include <array>

namespace remora::util {
namespace {

/** Build the 256-entry table for the (non-reflected) CRC-8 poly 0x07. */
constexpr std::array<uint8_t, 256>
makeCrc8Table()
{
    std::array<uint8_t, 256> table{};
    for (int i = 0; i < 256; ++i) {
        uint8_t crc = static_cast<uint8_t>(i);
        for (int bit = 0; bit < 8; ++bit) {
            crc = (crc & 0x80) ? static_cast<uint8_t>((crc << 1) ^ 0x07)
                               : static_cast<uint8_t>(crc << 1);
        }
        table[static_cast<size_t>(i)] = crc;
    }
    return table;
}

/**
 * Build the slicing-by-8 tables for the reflected IEEE CRC-32 poly.
 * Table 0 is the classic bytewise table; table k advances a byte's
 * contribution past k more zero bytes, so eight input bytes fold in
 * with eight independent lookups.
 */
constexpr std::array<std::array<uint32_t, 256>, 8>
makeCrc32Tables()
{
    std::array<std::array<uint32_t, 256>, 8> t{};
    for (uint32_t i = 0; i < 256; ++i) {
        uint32_t crc = i;
        for (int bit = 0; bit < 8; ++bit) {
            crc = (crc & 1u) ? (crc >> 1) ^ 0xedb88320u : crc >> 1;
        }
        t[0][i] = crc;
    }
    for (size_t k = 1; k < 8; ++k) {
        for (size_t i = 0; i < 256; ++i) {
            uint32_t prev = t[k - 1][i];
            t[k][i] = (prev >> 8) ^ t[0][prev & 0xffu];
        }
    }
    return t;
}

constexpr auto kCrc8Table = makeCrc8Table();
constexpr auto kCrc32 = makeCrc32Tables();

/** Little-endian 32-bit load, whatever the host byte order. */
uint32_t
loadLe32(const uint8_t *p)
{
    return static_cast<uint32_t>(p[0]) | static_cast<uint32_t>(p[1]) << 8 |
           static_cast<uint32_t>(p[2]) << 16 |
           static_cast<uint32_t>(p[3]) << 24;
}

} // namespace

uint8_t
crc8Hec(std::span<const uint8_t> data)
{
    uint8_t crc = 0;
    for (uint8_t b : data) {
        crc = kCrc8Table[crc ^ b];
    }
    // ITU-T I.432 coset addition.
    return static_cast<uint8_t>(crc ^ 0x55);
}

uint32_t
crc32Ieee(std::span<const uint8_t> data)
{
    Crc32 crc;
    crc.update(data);
    return crc.value();
}

void
Crc32::update(std::span<const uint8_t> data)
{
    uint32_t crc = state_;
    const uint8_t *p = data.data();
    size_t n = data.size();
    for (; n >= 8; p += 8, n -= 8) {
        uint32_t lo = loadLe32(p) ^ crc;
        uint32_t hi = loadLe32(p + 4);
        crc = kCrc32[7][lo & 0xffu] ^ kCrc32[6][(lo >> 8) & 0xffu] ^
              kCrc32[5][(lo >> 16) & 0xffu] ^ kCrc32[4][lo >> 24] ^
              kCrc32[3][hi & 0xffu] ^ kCrc32[2][(hi >> 8) & 0xffu] ^
              kCrc32[1][(hi >> 16) & 0xffu] ^ kCrc32[0][hi >> 24];
    }
    for (; n > 0; ++p, --n) {
        crc = (crc >> 8) ^ kCrc32[0][(crc ^ *p) & 0xffu];
    }
    state_ = crc;
}

} // namespace remora::util
