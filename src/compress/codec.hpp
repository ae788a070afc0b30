// Edge-payload codecs for compressed sub-block storage.
//
// A `Codec` turns the raw fixed-width edge array of one sub-block into a
// smaller byte string and back. Codecs are stateless and thread-safe; the
// registry below maps the manifest's `codec=` name and the frame header's
// numeric id to singleton instances. The frame layer (frame.hpp) wraps the
// encoded payload in a self-describing header so readers never need to
// guess which codec produced a file.
//
// Contract:
//   * Encode(raw, out) writes at most MaxCompressedSize(raw.size()) bytes
//     into `out` and returns the number written. It never fails on valid
//     edge payloads (raw.size() % kEdgeBytes == 0).
//   * Decode(encoded, raw_out) must fill raw_out exactly and reject any
//     malformed input with kCorruptData — it is the last line of defence
//     behind the frame CRC.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <string_view>

#include "util/status.hpp"

namespace graphsd::compress {

/// Stable on-disk codec ids (recorded in every frame header). Append only.
enum class CodecId : std::uint32_t {
  kNone = 0,
  kVarintDelta = 1,
};

class Codec {
 public:
  virtual ~Codec() = default;

  /// Manifest name, e.g. "none" or "varint-delta".
  virtual std::string_view name() const noexcept = 0;

  /// Stable numeric id stored in frame headers.
  virtual CodecId id() const noexcept = 0;

  /// Upper bound on Encode's output size for a `raw_size`-byte payload.
  virtual std::size_t MaxCompressedSize(std::size_t raw_size) const noexcept = 0;

  /// Encodes `raw` into `out` (sized >= MaxCompressedSize(raw.size())).
  /// Returns the number of bytes written.
  virtual Result<std::size_t> Encode(std::span<const std::uint8_t> raw,
                                     std::span<std::uint8_t> out) const = 0;

  /// Decodes `encoded` into `raw_out`, which must be exactly the original
  /// raw size. Any mismatch or malformed input yields kCorruptData.
  virtual Status Decode(std::span<const std::uint8_t> encoded,
                        std::span<std::uint8_t> raw_out) const = 0;
};

/// Identity codec: raw bytes pass through unchanged.
const Codec& NoneCodec();

/// Zigzag-varint delta codec over the (src,dst) edge stream. Exploits the
/// (src,dst)-sorted order inside grid sub-blocks (small non-negative deltas
/// encode in 1-2 bytes) but round-trips arbitrary edge payloads.
const Codec& VarintDeltaCodec();

/// The varint-delta decode kernels. `VarintDeltaCodec().Decode` picks the
/// fastest one this CPU supports once per process (the way `Crc32c` picks
/// SSE4.2). Every kernel accepts exactly the streams the checked decoder
/// accepts, never loads outside `encoded`, and hands any frame it cannot
/// vouch for to the checked decoder, so output bytes and every
/// kCorruptData status and message are the checked decoder's.
struct VarintDeltaKernel {
  const char* name;
  Status (*decode)(std::span<const std::uint8_t> encoded,
                   std::span<std::uint8_t> raw_out);
};

/// The byte-at-a-time checked decoder: the error path of every kernel and
/// the oracle tests compare them with.
Status VarintDeltaDecodeChecked(std::span<const std::uint8_t> encoded,
                                std::span<std::uint8_t> raw_out);

/// Every compiled kernel this CPU can run, portable first; the last one is
/// the one `Decode` dispatches to. Exposed so tests and benchmarks can run
/// each of them.
std::span<const VarintDeltaKernel> VarintDeltaKernels();

/// Name of the kernel `VarintDeltaCodec().Decode` dispatches to.
const char* VarintDeltaImplementation();

/// Looks up a codec by manifest name; nullptr when unknown.
const Codec* FindCodec(std::string_view name) noexcept;

/// Looks up a codec by frame-header id; nullptr when unknown.
const Codec* FindCodecById(std::uint32_t id) noexcept;

}  // namespace graphsd::compress
