#ifndef IQLKIT_STORAGE_CHECKSUM_H_
#define IQLKIT_STORAGE_CHECKSUM_H_

#include <array>
#include <cstddef>
#include <cstdint>
#include <string_view>

namespace iqlkit {
namespace storage {

namespace checksum_internal {

// Slicing-by-8 tables: kTables[0] is the classic bytewise table, and
// kTables[k][b] is the CRC of byte b followed by k zero bytes, so eight
// input bytes fold into the register with eight independent lookups.
using Crc32Tables = std::array<std::array<uint32_t, 256>, 8>;

inline const Crc32Tables& Tables() {
  static const Crc32Tables kTables = [] {
    Crc32Tables t{};
    for (uint32_t i = 0; i < 256; ++i) {
      uint32_t c = i;
      for (int k = 0; k < 8; ++k) {
        c = (c & 1) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
      }
      t[0][i] = c;
    }
    for (uint32_t i = 0; i < 256; ++i) {
      for (size_t k = 1; k < 8; ++k) {
        t[k][i] = t[0][t[k - 1][i] & 0xFFu] ^ (t[k - 1][i] >> 8);
      }
    }
    return t;
  }();
  return kTables;
}

inline uint32_t LoadLe32(const unsigned char* p) {
  return static_cast<uint32_t>(p[0]) | static_cast<uint32_t>(p[1]) << 8 |
         static_cast<uint32_t>(p[2]) << 16 | static_cast<uint32_t>(p[3]) << 24;
}

}  // namespace checksum_internal

// CRC-32 (the reflected 0xEDB88320 polynomial, as in zlib/gzip) over a byte
// range. Every on-disk payload — snapshot body and each WAL frame — carries
// its CRC so recovery can tell a torn or bit-rotted tail from a complete
// record without trusting lengths alone. `crc` chains ranges:
// Crc32(b, Crc32(a)) == Crc32(a + b).
inline uint32_t Crc32(std::string_view data, uint32_t crc = 0) {
  const checksum_internal::Crc32Tables& t = checksum_internal::Tables();
  const auto* p = reinterpret_cast<const unsigned char*>(data.data());
  size_t n = data.size();
  crc = ~crc;
  for (; n >= 8; p += 8, n -= 8) {
    uint32_t lo = crc ^ checksum_internal::LoadLe32(p);
    uint32_t hi = checksum_internal::LoadLe32(p + 4);
    crc = t[7][lo & 0xFFu] ^ t[6][(lo >> 8) & 0xFFu] ^
          t[5][(lo >> 16) & 0xFFu] ^ t[4][lo >> 24] ^ t[3][hi & 0xFFu] ^
          t[2][(hi >> 8) & 0xFFu] ^ t[1][(hi >> 16) & 0xFFu] ^ t[0][hi >> 24];
  }
  for (; n > 0; ++p, --n) {
    crc = t[0][(crc ^ *p) & 0xFFu] ^ (crc >> 8);
  }
  return ~crc;
}

}  // namespace storage
}  // namespace iqlkit

#endif  // IQLKIT_STORAGE_CHECKSUM_H_
