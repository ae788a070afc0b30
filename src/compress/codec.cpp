#include "compress/codec.hpp"

#include <algorithm>
#include <array>
#include <bit>
#include <cstring>
#include <vector>

#if defined(__x86_64__)
#include <tmmintrin.h>
#endif

namespace graphsd::compress {
namespace {

// Sub-block edge payloads are arrays of {u32 src, u32 dst} records in
// native byte order (the builders write the structs verbatim); the codecs
// only need the 8-byte stride, not the graph-layer Edge type.
constexpr std::size_t kPairBytes = 8;

// Worst case for one zigzag-encoded u32 delta: |delta| < 2^32, so the
// zigzag value is < 2^33 and its LEB128 varint takes at most 5 bytes.
constexpr std::size_t kMaxVarintBytes = 5;

std::uint64_t ZigzagEncode(std::int64_t v) noexcept {
  return (static_cast<std::uint64_t>(v) << 1) ^
         static_cast<std::uint64_t>(v >> 63);
}

std::int64_t ZigzagDecode(std::uint64_t v) noexcept {
  return static_cast<std::int64_t>(v >> 1) ^
         -static_cast<std::int64_t>(v & 1);
}

std::size_t PutVarint(std::uint64_t v, std::uint8_t* out) noexcept {
  std::size_t n = 0;
  while (v >= 0x80) {
    out[n++] = static_cast<std::uint8_t>(v) | 0x80;
    v >>= 7;
  }
  out[n++] = static_cast<std::uint8_t>(v);
  return n;
}

// --- varint-delta decode -------------------------------------------------
//
// Every kernel decodes the same zigzag-LEB128 stream and accepts exactly
// what the checked decoder accepts. A kernel only ever writes whole pairs it
// has validated, and it hands the rest of the frame (its tail, or the first
// pair it cannot vouch for) to the checked decoder at that pair boundary.
// The checked decoder is deterministic from the cursor, so output bytes and
// every kCorruptData status and message are those of a checked decode of
// the whole frame.

// Where a decode stands: the next encoded byte, the next output pair, and
// the previous (src, dst) the next deltas apply to.
struct DecodeCursor {
  std::size_t pos = 0;
  std::size_t off = 0;
  std::uint32_t prev_src = 0;
  std::uint32_t prev_dst = 0;
};

// Reads one zigzag varint delta at `*pos` and applies it to `prev`,
// rejecting truncated varints, oversized encodings and deltas that step
// outside the 32-bit vertex-id range.
Result<std::uint32_t> NextValueChecked(std::span<const std::uint8_t> encoded,
                                       std::size_t* pos, std::uint32_t prev) {
  std::uint64_t v = 0;
  for (std::size_t i = 0; i < kMaxVarintBytes; ++i) {
    if (*pos >= encoded.size()) {
      return CorruptDataError("varint-delta codec: truncated varint");
    }
    const std::uint8_t byte = encoded[(*pos)++];
    v |= static_cast<std::uint64_t>(byte & 0x7f) << (7 * i);
    if ((byte & 0x80) == 0) {
      const std::int64_t next =
          static_cast<std::int64_t>(prev) + ZigzagDecode(v);
      if (next < 0 || next > static_cast<std::int64_t>(UINT32_MAX)) {
        return CorruptDataError("varint-delta codec: delta out of range");
      }
      return static_cast<std::uint32_t>(next);
    }
  }
  return CorruptDataError("varint-delta codec: varint too long");
}

void StorePair(std::uint8_t* out, std::uint32_t src, std::uint32_t dst) {
  std::memcpy(out, &src, sizeof(src));
  std::memcpy(out + sizeof(src), &dst, sizeof(dst));
}

// The byte-at-a-time checked decode from `c` to the end of the frame.
Status DecodeCheckedFrom(std::span<const std::uint8_t> encoded,
                         std::span<std::uint8_t> raw_out, DecodeCursor c) {
  if (raw_out.size() % kPairBytes != 0) {
    return CorruptDataError(
        "varint-delta codec: raw size is not a whole number of edges");
  }
  for (; c.off < raw_out.size(); c.off += kPairBytes) {
    GRAPHSD_ASSIGN_OR_RETURN(const std::uint32_t src,
                             NextValueChecked(encoded, &c.pos, c.prev_src));
    GRAPHSD_ASSIGN_OR_RETURN(const std::uint32_t dst,
                             NextValueChecked(encoded, &c.pos, c.prev_dst));
    StorePair(raw_out.data() + c.off, src, dst);
    c.prev_src = src;
    c.prev_dst = dst;
  }
  if (c.pos != encoded.size()) {
    return CorruptDataError("varint-delta codec: trailing bytes after edges");
  }
  return Status::Ok();
}

std::uint64_t LoadLittle64(const std::uint8_t* p) noexcept {
  std::uint64_t v;
  std::memcpy(&v, p, sizeof(v));
  if constexpr (std::endian::native == std::endian::big) {
    v = __builtin_bswap64(v);
  }
  return v;
}

// The fast kernels load 8 bytes per varint, and a pair's second varint
// starts at most kMaxVarintBytes after its first: a pair is decoded fast
// only while this many bytes remain, so no load leaves `encoded`.
constexpr std::size_t kFastPairBytes = kMaxVarintBytes + 8;

// The continuation bit of every byte of a little-endian 8-byte word.
constexpr std::uint64_t kContinuationBits = 0x8080808080808080ull;

// Gathers the 7-bit groups of the varint whose bytes (at most
// kMaxVarintBytes, continuation bits included) are the low bytes of `x`;
// every higher byte of `x` must be zero.
inline std::uint64_t CompactVarint(std::uint64_t x) noexcept {
  return (x & 0x7f) | ((x >> 1) & (0x7full << 7)) |
         ((x >> 2) & (0x7full << 14)) | ((x >> 3) & (0x7full << 21)) |
         ((x >> 4) & (0x7full << 28));
}

// Applies zigzag delta `v` to `prev`; false when it leaves the id range.
inline bool ApplyDelta(std::uint32_t prev, std::uint64_t v,
                       std::uint32_t* out) noexcept {
  const std::int64_t next = static_cast<std::int64_t>(prev) + ZigzagDecode(v);
  if (static_cast<std::uint64_t>(next) > UINT32_MAX) return false;
  *out = static_cast<std::uint32_t>(next);
  return true;
}

// Decodes the varint at `*p` with one unaligned 8-byte load and applies it
// to `prev`. False when the varint is longer than kMaxVarintBytes or the
// delta leaves the id range — the checked decoder then words the
// rejection.
inline bool NextValueWord(const std::uint8_t** p, std::uint32_t prev,
                          std::uint32_t* out) noexcept {
  const std::uint64_t word = LoadLittle64(*p);
  const std::uint64_t stops = ~word & kContinuationBits;
  const int t = std::countr_zero(stops);  // stop bit of the last byte
  if (t >= static_cast<int>(8 * kMaxVarintBytes)) return false;
  *p += t / 8 + 1;
  return ApplyDelta(prev, CompactVarint(word & (stops ^ (stops - 1))), out);
}

// Decodes the (src, dst) delta pair at `*p`. When both varints end inside
// one 8-byte load — nearly every pair of a grid sub-block — both are cut
// from that word: the two lowest stop bits give their ends, so the next
// load waits only on one count-trailing-zeros. Otherwise each varint takes
// its own load.
inline bool NextPairWord(const std::uint8_t** p, std::uint32_t* src,
                         std::uint32_t* dst) noexcept {
  const std::uint64_t word = LoadLittle64(*p);
  const std::uint64_t stops = ~word & kContinuationBits;
  const std::uint64_t rest = stops & (stops - 1);
  const int t1 = std::countr_zero(stops);
  const int t2 = std::countr_zero(rest);
  constexpr int kMaxBits = 8 * kMaxVarintBytes;
  if (t1 >= kMaxBits || t2 == 64 || t2 - t1 > kMaxBits) {
    return NextValueWord(p, *src, src) && NextValueWord(p, *dst, dst);
  }
  *p += t2 / 8 + 1;
  const std::uint64_t first = word & (stops ^ (stops - 1));
  const std::uint64_t second = (word & (rest ^ (rest - 1))) >> (t1 + 1);
  return ApplyDelta(*src, CompactVarint(first), src) &&
         ApplyDelta(*dst, CompactVarint(second), dst);
}

// The shared kernel loop. `bulk` decodes as many whole pairs as it can
// vouch for and stops short of anything else; one scalar pair follows, and
// the two alternate while at least kFastPairBytes of input remain. The
// checked decoder finishes the frame: its tail, or the first pair the fast
// paths reject.
template <typename Bulk>
Status DecodeFast(std::span<const std::uint8_t> encoded,
                  std::span<std::uint8_t> raw_out, Bulk bulk) {
  DecodeCursor c;
  if (raw_out.size() % kPairBytes == 0 && encoded.size() >= kFastPairBytes) {
    const std::uint8_t* p = encoded.data();
    const std::uint8_t* const in_end = encoded.data() + encoded.size();
    std::uint8_t* out = raw_out.data();
    std::uint8_t* const out_end = raw_out.data() + raw_out.size();
    std::uint32_t src = 0;
    std::uint32_t dst = 0;
    while (true) {
      bulk(&p, in_end, &out, out_end, &src, &dst);
      if (out == out_end ||
          static_cast<std::size_t>(in_end - p) < kFastPairBytes) {
        break;
      }
      const std::uint8_t* q = p;
      std::uint32_t next_src = src;
      std::uint32_t next_dst = dst;
      if (!NextPairWord(&q, &next_src, &next_dst)) break;
      StorePair(out, next_src, next_dst);
      out += kPairBytes;
      p = q;
      src = next_src;
      dst = next_dst;
    }
    c.pos = static_cast<std::size_t>(p - encoded.data());
    c.off = static_cast<std::size_t>(out - raw_out.data());
    c.prev_src = src;
    c.prev_dst = dst;
  }
  return DecodeCheckedFrom(encoded, raw_out, c);
}

// Word-at-a-time scalar kernel: one unaligned 8-byte load per pair (per
// varint when a pair spans more than 8 bytes), terminators found from the
// stop bits. Portable C++.
Status DecodeScalar(std::span<const std::uint8_t> encoded,
                    std::span<std::uint8_t> raw_out) {
  return DecodeFast(encoded, raw_out,
                    [](const std::uint8_t**, const std::uint8_t*,
                       std::uint8_t**, std::uint8_t*, std::uint32_t*,
                       std::uint32_t*) {});
}

#if defined(__x86_64__)
// SSSE3 masked-VByte kernel (Plaisance, Kurz & Lemire, arXiv:1503.07387).
// A step decodes 4 varints of 1-3 bytes each — two (src, dst) pairs, so
// steps start and end on pair boundaries. The continuation bits of the
// step's first 12 bytes index a table naming the `pshufb` that puts each
// varint in its own 32-bit lane; the 7-bit groups are then joined with two
// multiply-adds, zigzag-decoded and prefix-summed with stride 2 onto the
// previous pair. A 4- or 5-byte varint (or an overlong one) has no table
// shape: the scalar pair path takes that pair.
//
// The continuation bits of a 64-byte window are gathered once. A step's
// start is the byte after the window's 4th, 8th, ... stop bit, so finding
// the next step costs four clear-lowest-bit operations rather than waiting
// on this step's table entry. Those bit operations and the window shifts
// are BMI1/BMI2 instructions, so the kernel also needs both.
struct MaskedVByteTables {
  static constexpr std::uint8_t kNoShape = 0xFF;
  // 4 varints of 1-3 bytes each: 3^4 shapes.
  static constexpr int kShapes = 81;
  std::array<std::uint8_t, 1 << 12> shape{};
  alignas(16) std::array<std::array<std::uint8_t, 16>, kShapes> shuffles{};
};

MaskedVByteTables BuildMaskedVByteTables() {
  MaskedVByteTables t;
  t.shape.fill(MaskedVByteTables::kNoShape);
  for (unsigned mask = 0; mask < t.shape.size(); ++mask) {
    // Lengths of the first 4 varints, if they end inside the 12 bytes.
    int lens[4];
    int n = 0;
    for (int i = 0, start = 0; i < 12 && n < 4; ++i) {
      if ((mask >> i & 1) == 0) {
        lens[n++] = i - start + 1;
        start = i + 1;
      }
    }
    if (n < 4 || !std::all_of(lens, lens + 4,
                              [](int len) { return len <= 3; })) {
      continue;
    }
    int shape = 0;
    for (int k = 0, weight = 1; k < 4; ++k, weight *= 3) {
      shape += (lens[k] - 1) * weight;
    }
    std::array<std::uint8_t, 16>& shuffle = t.shuffles[shape];
    shuffle.fill(0x80);  // pshufb zeroes these bytes
    int pos = 0;
    for (int k = 0; k < 4; ++k) {
      for (int b = 0; b < lens[k]; ++b) {
        shuffle[4 * k + b] = static_cast<std::uint8_t>(pos++);
      }
    }
    t.shape[mask] = static_cast<std::uint8_t>(shape);
  }
  return t;
}

const MaskedVByteTables& MaskedVByte() {
  static const MaskedVByteTables tables = BuildMaskedVByteTables();
  return tables;
}

// Decodes masked-VByte steps while 64 input bytes and 256 output bytes (a
// window's worth of steps) remain, and stops short of any step it cannot
// vouch for.
__attribute__((target("ssse3,bmi,bmi2"))) void MaskedVByteBulk(
    const std::uint8_t** p, const std::uint8_t* in_end, std::uint8_t** out,
    std::uint8_t* out_end, std::uint32_t* src, std::uint32_t* dst) {
  const MaskedVByteTables& t = MaskedVByte();
  const auto load = [](const void* at) {
    return _mm_loadu_si128(static_cast<const __m128i*>(at));
  };
  const __m128i low7 = _mm_set1_epi8(0x7f);
  const __m128i join7 = _mm_set1_epi16(128 << 8 | 1);      // b0 + b1 << 7
  const __m128i join14 = _mm_set1_epi32(1 << 14 << 16 | 1);  // + b2 << 14
  const __m128i one = _mm_set1_epi32(1);
  const __m128i zero = _mm_setzero_si128();
  __m128i carry = _mm_setr_epi32(
      static_cast<int>(*src), static_cast<int>(*dst), static_cast<int>(*src),
      static_cast<int>(*dst));
  const std::uint8_t* in = *p;
  std::uint8_t* o = *out;
  bool stuck = false;
  while (!stuck && in_end - in >= 64 && out_end - o >= 256) {
    std::uint64_t cont = 0;
    for (int k = 0; k < 4; ++k) {
      cont |= static_cast<std::uint64_t>(static_cast<std::uint32_t>(
                  _mm_movemask_epi8(load(in + 16 * k))))
              << (16 * k);
    }
    std::uint64_t stops = ~cont;  // stop bits at or after `start`
    unsigned start = 0;
    // The step's 16-byte load must stay inside the window.
    while (start <= 48) {
      std::uint64_t fourth = stops & (stops - 1);
      fourth &= fourth - 1;
      fourth &= fourth - 1;
      if (fourth == 0) break;  // fewer than 4 varints end in the window
      const std::uint8_t shape = t.shape[(cont >> start) & 0xFFF];
      if (shape == MaskedVByteTables::kNoShape) {
        stuck = true;
        break;
      }
      const __m128i bytes = _mm_shuffle_epi8(
          load(in + start), _mm_load_si128(reinterpret_cast<const __m128i*>(
                                t.shuffles[shape].data())));
      const __m128i zz = _mm_madd_epi16(
          _mm_maddubs_epi16(join7, _mm_and_si128(bytes, low7)), join14);
      const __m128i d = _mm_xor_si128(
          _mm_srli_epi32(zz, 1), _mm_sub_epi32(zero, _mm_and_si128(zz, one)));
      const __m128i r =
          _mm_add_epi32(_mm_add_epi32(d, _mm_slli_si128(d, 8)), carry);
      // |d| < 2^20, so when the previous pair and every sum are below 2^31
      // no sum can have left [0, 2^32). Otherwise test each lane exactly:
      // with u its previous value, u + d wraps exactly when u ^ r and
      // ~(d ^ r) share the top bit.
      if (_mm_movemask_epi8(_mm_or_si128(r, carry)) & 0x8888) {
        const __m128i u = _mm_unpacklo_epi64(carry, r);
        const __m128i wrapped =
            _mm_andnot_si128(_mm_xor_si128(d, r), _mm_xor_si128(u, r));
        if (_mm_movemask_epi8(wrapped) & 0x8888) {
          stuck = true;
          break;
        }
      }
      _mm_storeu_si128(reinterpret_cast<__m128i*>(o), r);
      o += 16;
      carry = _mm_shuffle_epi32(r, 0xEE);
      start = static_cast<unsigned>(std::countr_zero(fourth)) + 1;
      stops = fourth & (fourth - 1);
    }
    if (start == 0) break;
    in += start;
  }
  *src = static_cast<std::uint32_t>(_mm_cvtsi128_si32(carry));
  *dst = static_cast<std::uint32_t>(
      _mm_cvtsi128_si32(_mm_srli_si128(carry, 4)));
  *p = in;
  *out = o;
}

Status DecodeSsse3(std::span<const std::uint8_t> encoded,
                   std::span<std::uint8_t> raw_out) {
  return DecodeFast(encoded, raw_out, &MaskedVByteBulk);
}
#endif

// Every kernel this build compiled, portable first; the last one this CPU
// supports is the one Decode dispatches to.
struct KernelEntry {
  VarintDeltaKernel kernel;
  bool (*supported)() noexcept;
};

constexpr KernelEntry kKernels[] = {
    {{"scalar", &DecodeScalar}, []() noexcept { return true; }},
#if defined(__x86_64__)
    {{"ssse3-bmi2", &DecodeSsse3},
     []() noexcept {
       return __builtin_cpu_supports("ssse3") &&
              __builtin_cpu_supports("bmi") && __builtin_cpu_supports("bmi2");
     }},
#endif
};

const std::vector<VarintDeltaKernel>& SupportedKernels() {
  static const std::vector<VarintDeltaKernel> kernels = [] {
    std::vector<VarintDeltaKernel> out;
    for (const KernelEntry& entry : kKernels) {
      if (entry.supported()) out.push_back(entry.kernel);
    }
    return out;
  }();
  return kernels;
}

const VarintDeltaKernel& ActiveKernel() { return SupportedKernels().back(); }

class NoneCodecImpl final : public Codec {
 public:
  std::string_view name() const noexcept override { return "none"; }
  CodecId id() const noexcept override { return CodecId::kNone; }

  std::size_t MaxCompressedSize(std::size_t raw_size) const noexcept override {
    return raw_size;
  }

  Result<std::size_t> Encode(std::span<const std::uint8_t> raw,
                             std::span<std::uint8_t> out) const override {
    if (out.size() < raw.size()) {
      return InvalidArgumentError("none codec: output buffer too small");
    }
    if (!raw.empty()) std::memcpy(out.data(), raw.data(), raw.size());
    return raw.size();
  }

  Status Decode(std::span<const std::uint8_t> encoded,
                std::span<std::uint8_t> raw_out) const override {
    if (encoded.size() != raw_out.size()) {
      return CorruptDataError("none codec: payload size mismatch");
    }
    if (!encoded.empty()) {
      std::memcpy(raw_out.data(), encoded.data(), encoded.size());
    }
    return Status::Ok();
  }
};

class VarintDeltaCodecImpl final : public Codec {
 public:
  std::string_view name() const noexcept override { return "varint-delta"; }
  CodecId id() const noexcept override { return CodecId::kVarintDelta; }

  std::size_t MaxCompressedSize(std::size_t raw_size) const noexcept override {
    return raw_size / kPairBytes * (2 * kMaxVarintBytes);
  }

  Result<std::size_t> Encode(std::span<const std::uint8_t> raw,
                             std::span<std::uint8_t> out) const override {
    if (raw.size() % kPairBytes != 0) {
      return InvalidArgumentError(
          "varint-delta codec: payload is not a whole number of edges");
    }
    if (out.size() < MaxCompressedSize(raw.size())) {
      return InvalidArgumentError("varint-delta codec: output buffer too small");
    }
    std::size_t written = 0;
    std::uint32_t prev_src = 0;
    std::uint32_t prev_dst = 0;
    for (std::size_t off = 0; off < raw.size(); off += kPairBytes) {
      std::uint32_t src = 0;
      std::uint32_t dst = 0;
      std::memcpy(&src, raw.data() + off, sizeof(src));
      std::memcpy(&dst, raw.data() + off + sizeof(src), sizeof(dst));
      written += PutVarint(
          ZigzagEncode(static_cast<std::int64_t>(src) - prev_src),
          out.data() + written);
      written += PutVarint(
          ZigzagEncode(static_cast<std::int64_t>(dst) - prev_dst),
          out.data() + written);
      prev_src = src;
      prev_dst = dst;
    }
    return written;
  }

  Status Decode(std::span<const std::uint8_t> encoded,
                std::span<std::uint8_t> raw_out) const override {
    return ActiveKernel().decode(encoded, raw_out);
  }
};

}  // namespace

const Codec& NoneCodec() {
  static const NoneCodecImpl kInstance;
  return kInstance;
}

const Codec& VarintDeltaCodec() {
  static const VarintDeltaCodecImpl kInstance;
  return kInstance;
}

const Codec* FindCodec(std::string_view name) noexcept {
  if (name == "none") return &NoneCodec();
  if (name == "varint-delta") return &VarintDeltaCodec();
  return nullptr;
}

const Codec* FindCodecById(std::uint32_t id) noexcept {
  switch (static_cast<CodecId>(id)) {
    case CodecId::kNone:
      return &NoneCodec();
    case CodecId::kVarintDelta:
      return &VarintDeltaCodec();
  }
  return nullptr;
}

Status VarintDeltaDecodeChecked(std::span<const std::uint8_t> encoded,
                                std::span<std::uint8_t> raw_out) {
  return DecodeCheckedFrom(encoded, raw_out, DecodeCursor{});
}

std::span<const VarintDeltaKernel> VarintDeltaKernels() {
  return SupportedKernels();
}

const char* VarintDeltaImplementation() { return ActiveKernel().name; }

}  // namespace graphsd::compress
