#include "util/crc32c.hpp"

#include <array>
#include <bit>
#include <cstring>

#if defined(__x86_64__)
#include <nmmintrin.h>
#endif

namespace graphsd {
namespace {

// Reflected Castagnoli polynomial (iSCSI / ext4 / RFC 3720).
constexpr std::uint32_t kPoly = 0x82F63B78u;

using Tables = std::array<std::array<std::uint32_t, 256>, 8>;

// kTables[0] is the byte-at-a-time table; kTables[k][b] is the CRC of byte
// b followed by k zero bytes, which lets one step fold eight input bytes.
constexpr Tables MakeTables() {
  Tables t{};
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t crc = i;
    for (int bit = 0; bit < 8; ++bit) {
      crc = (crc & 1u) ? (crc >> 1) ^ kPoly : crc >> 1;
    }
    t[0][i] = crc;
  }
  for (std::uint32_t i = 0; i < 256; ++i) {
    for (std::size_t k = 1; k < 8; ++k) {
      t[k][i] = t[0][t[k - 1][i] & 0xFFu] ^ (t[k - 1][i] >> 8);
    }
  }
  return t;
}

constexpr Tables kTables = MakeTables();

std::uint64_t LoadLittle64(const std::uint8_t* p) noexcept {
  std::uint64_t v;
  std::memcpy(&v, p, sizeof(v));
  if constexpr (std::endian::native == std::endian::big) {
    v = __builtin_bswap64(v);
  }
  return v;
}

#if defined(__x86_64__)
__attribute__((target("sse4.2"))) std::uint32_t Crc32cSse42(
    std::uint32_t crc, const void* data, std::size_t size) noexcept {
  const auto* bytes = static_cast<const std::uint8_t*>(data);
  std::uint64_t state = ~crc;
  for (; size >= 8; size -= 8, bytes += 8) {
    state = _mm_crc32_u64(state, LoadLittle64(bytes));
  }
  auto state32 = static_cast<std::uint32_t>(state);
  for (; size > 0; --size, ++bytes) state32 = _mm_crc32_u8(state32, *bytes);
  return ~state32;
}
#endif

using CrcFn = std::uint32_t (*)(std::uint32_t, const void*,
                                std::size_t) noexcept;

struct Dispatch {
  CrcFn fn;
  const char* name;
};

Dispatch Choose() noexcept {
#if defined(__x86_64__)
  if (__builtin_cpu_supports("sse4.2")) return {&Crc32cSse42, "sse4.2"};
#endif
  return {&Crc32cPortable, "slice-by-8"};
}

const Dispatch& Active() noexcept {
  static const Dispatch dispatch = Choose();
  return dispatch;
}

}  // namespace

std::uint32_t Crc32cPortable(std::uint32_t crc, const void* data,
                             std::size_t size) noexcept {
  const auto* bytes = static_cast<const std::uint8_t*>(data);
  crc = ~crc;
  for (; size >= 8; size -= 8, bytes += 8) {
    const std::uint64_t v = LoadLittle64(bytes) ^ crc;
    crc = kTables[7][v & 0xFFu] ^ kTables[6][(v >> 8) & 0xFFu] ^
          kTables[5][(v >> 16) & 0xFFu] ^ kTables[4][(v >> 24) & 0xFFu] ^
          kTables[3][(v >> 32) & 0xFFu] ^ kTables[2][(v >> 40) & 0xFFu] ^
          kTables[1][(v >> 48) & 0xFFu] ^ kTables[0][v >> 56];
  }
  for (; size > 0; --size, ++bytes) {
    crc = kTables[0][(crc ^ *bytes) & 0xFFu] ^ (crc >> 8);
  }
  return ~crc;
}

std::uint32_t Crc32c(std::uint32_t crc, const void* data,
                     std::size_t size) noexcept {
  return Active().fn(crc, data, size);
}

const char* Crc32cImplementation() noexcept { return Active().name; }

}  // namespace graphsd
