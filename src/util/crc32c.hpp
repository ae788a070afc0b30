// CRC32C (Castagnoli) checksums for end-to-end on-disk integrity.
//
// Every payload file of a grid dataset (sub-block edges/weights/index,
// degrees) is checksummed at build time and verified on load, so bit rot or
// torn writes surface as `kCorruptData` instead of silent wrong answers.
//
// The implementation is chosen once per process: the SSE4.2 `crc32`
// instruction on x86-64 CPUs that have it (~7 GiB/s on an Intel Xeon),
// else a portable slice-by-8 table loop (~1.4 GiB/s on the same CPU; the
// byte-at-a-time table it replaced ran at ~300 MiB/s). Both compute the
// same function bit for bit.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>

namespace graphsd {

/// Extends a running CRC32C with `data`. Start from `crc = 0`; the result of
/// one call feeds the next, so large files can be checksummed in chunks:
///   crc = Crc32c(Crc32c(0, a), b)  ==  Crc32c(0, ab)
std::uint32_t Crc32c(std::uint32_t crc, const void* data,
                     std::size_t size) noexcept;

/// One-shot CRC32C of a byte span.
inline std::uint32_t Crc32c(std::span<const std::uint8_t> data) noexcept {
  return Crc32c(0, data.data(), data.size());
}

/// The portable slice-by-8 routine `Crc32c` falls back to; same contract.
/// Exposed so tests and benchmarks can compare it with the dispatched path.
std::uint32_t Crc32cPortable(std::uint32_t crc, const void* data,
                             std::size_t size) noexcept;

/// Name of the implementation `Crc32c` dispatches to: "sse4.2" or
/// "slice-by-8".
const char* Crc32cImplementation() noexcept;

}  // namespace graphsd
