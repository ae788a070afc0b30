// Edge-payload codec unit tests: round-trips over the payload shapes the
// grid produces (empty, single-edge, sorted, duplicates, extreme ids) and
// strict rejection of malformed streams — the codec is the last line of
// defence behind the frame CRC, so every truncation/overflow path must
// surface as kCorruptData rather than garbage edges.
#include <sys/mman.h>
#include <unistd.h>

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "compress/codec.hpp"
#include "compress/frame.hpp"
#include "graph/generators.hpp"
#include "graph/types.hpp"
#include "partition/grid_dataset.hpp"
#include "util/rng.hpp"
#include "testing_util.hpp"

namespace graphsd::compress {
namespace {

using testing::BuildTestGrid;
using testing::TempDir;
using testing::ValueOrDie;

std::vector<std::uint8_t> PayloadOf(const std::vector<Edge>& edges) {
  std::vector<std::uint8_t> raw(edges.size() * kEdgeBytes);
  if (!raw.empty()) std::memcpy(raw.data(), edges.data(), raw.size());
  return raw;
}

std::vector<std::uint8_t> EncodeOrDie(const Codec& codec,
                                      const std::vector<std::uint8_t>& raw) {
  std::vector<std::uint8_t> out(codec.MaxCompressedSize(raw.size()));
  const std::size_t n = ValueOrDie(
      codec.Encode(raw, std::span<std::uint8_t>(out)));
  EXPECT_LE(n, out.size());
  out.resize(n);
  return out;
}

void ExpectRoundTrip(const Codec& codec, const std::vector<Edge>& edges) {
  const std::vector<std::uint8_t> raw = PayloadOf(edges);
  const std::vector<std::uint8_t> encoded = EncodeOrDie(codec, raw);
  std::vector<std::uint8_t> decoded(raw.size());
  ASSERT_OK(codec.Decode(encoded, decoded));
  EXPECT_EQ(decoded, raw);
}

TEST(CodecRegistry, FindByNameAndId) {
  ASSERT_NE(FindCodec("none"), nullptr);
  EXPECT_EQ(FindCodec("none")->id(), CodecId::kNone);
  ASSERT_NE(FindCodec("varint-delta"), nullptr);
  EXPECT_EQ(FindCodec("varint-delta")->id(), CodecId::kVarintDelta);
  EXPECT_EQ(FindCodec("zstd"), nullptr);
  EXPECT_EQ(FindCodec(""), nullptr);

  EXPECT_EQ(FindCodecById(0), &NoneCodec());
  EXPECT_EQ(FindCodecById(1), &VarintDeltaCodec());
  EXPECT_EQ(FindCodecById(2), nullptr);
  EXPECT_EQ(FindCodecById(UINT32_MAX), nullptr);
}

TEST(NoneCodec, RoundTripsVerbatim) {
  const Codec& codec = NoneCodec();
  EXPECT_EQ(codec.name(), "none");
  ExpectRoundTrip(codec, {});
  ExpectRoundTrip(codec, {{3, 7}});
  ExpectRoundTrip(codec, {{0, 1}, {0, 2}, {5, 0}});
  const std::vector<std::uint8_t> raw = PayloadOf({{1, 2}, {3, 4}});
  EXPECT_EQ(EncodeOrDie(codec, raw), raw);
}

TEST(NoneCodec, DecodeRejectsSizeMismatch) {
  std::vector<std::uint8_t> encoded(16);
  std::vector<std::uint8_t> out(8);
  EXPECT_EQ(NoneCodec().Decode(encoded, out).code(),
            StatusCode::kCorruptData);
}

TEST(VarintDelta, RoundTripsEmptyPayload) {
  const std::vector<std::uint8_t> encoded =
      EncodeOrDie(VarintDeltaCodec(), {});
  EXPECT_TRUE(encoded.empty());
  std::vector<std::uint8_t> out;
  EXPECT_OK(VarintDeltaCodec().Decode(encoded, out));
}

TEST(VarintDelta, RoundTripsSingleEdge) {
  ExpectRoundTrip(VarintDeltaCodec(), {{0, 0}});
  ExpectRoundTrip(VarintDeltaCodec(), {{123456, 654321}});
  ExpectRoundTrip(VarintDeltaCodec(), {{UINT32_MAX, UINT32_MAX}});
}

TEST(VarintDelta, RoundTripsDuplicateEdges) {
  // Duplicate (src,dst) pairs produce zero deltas: one byte each.
  const std::vector<Edge> edges(17, Edge{42, 99});
  ExpectRoundTrip(VarintDeltaCodec(), edges);
  const std::vector<std::uint8_t> encoded =
      EncodeOrDie(VarintDeltaCodec(), PayloadOf(edges));
  // First edge pays for the absolute values, the 16 duplicates are 2 bytes.
  EXPECT_EQ(encoded.size(), 2u + 1u + 16u * 2u);
}

TEST(VarintDelta, RoundTripsMaxVertexIdSwings) {
  // Worst-case deltas: 0 <-> UINT32_MAX swings in both columns. Each delta
  // zigzags to just under 2^33, the 5-byte varint ceiling.
  ExpectRoundTrip(VarintDeltaCodec(), {{0, UINT32_MAX},
                                       {UINT32_MAX, 0},
                                       {0, UINT32_MAX},
                                       {UINT32_MAX, UINT32_MAX},
                                       {0, 0}});
}

TEST(VarintDelta, RoundTripsUnsortedPayload) {
  // The codec exploits sorted order but must round-trip any edge array.
  ExpectRoundTrip(VarintDeltaCodec(), {{900, 3},
                                       {2, 900000},
                                       {2, 2},
                                       {UINT32_MAX, 17},
                                       {5, UINT32_MAX - 1}});
}

TEST(VarintDelta, SortedPayloadCompresses) {
  // A (src,dst)-sorted run with small gaps — the shape grid sub-blocks
  // have — must come out well under the raw 8 bytes/edge.
  std::vector<Edge> edges;
  for (std::uint32_t s = 0; s < 64; ++s) {
    for (std::uint32_t d = 0; d < 8; ++d) {
      edges.push_back({1000 + s, 2000 + 3 * d});
    }
  }
  const std::vector<std::uint8_t> raw = PayloadOf(edges);
  const std::vector<std::uint8_t> encoded =
      EncodeOrDie(VarintDeltaCodec(), raw);
  EXPECT_LT(encoded.size() * 2, raw.size());  // at least 2x on this shape
}

TEST(VarintDelta, EncodeRejectsPartialEdge) {
  std::vector<std::uint8_t> raw(kEdgeBytes + 3);
  std::vector<std::uint8_t> out(64);
  EXPECT_EQ(VarintDeltaCodec()
                .Encode(raw, std::span<std::uint8_t>(out))
                .status()
                .code(),
            StatusCode::kInvalidArgument);
}

TEST(VarintDelta, DecodeRejectsTruncatedStream) {
  const std::vector<std::uint8_t> encoded =
      EncodeOrDie(VarintDeltaCodec(), PayloadOf({{7, 9}, {8, 11}}));
  std::vector<std::uint8_t> out(2 * kEdgeBytes);
  for (std::size_t cut = 0; cut < encoded.size(); ++cut) {
    const std::span<const std::uint8_t> head(encoded.data(), cut);
    EXPECT_EQ(VarintDeltaCodec().Decode(head, out).code(),
              StatusCode::kCorruptData)
        << "cut at " << cut;
  }
}

TEST(VarintDelta, DecodeRejectsTrailingBytes) {
  std::vector<std::uint8_t> encoded =
      EncodeOrDie(VarintDeltaCodec(), PayloadOf({{7, 9}}));
  encoded.push_back(0x00);
  std::vector<std::uint8_t> out(kEdgeBytes);
  EXPECT_EQ(VarintDeltaCodec().Decode(encoded, out).code(),
            StatusCode::kCorruptData);
}

TEST(VarintDelta, DecodeRejectsOverlongVarint) {
  // Six continuation bytes exceed the 5-byte ceiling for a 33-bit zigzag.
  const std::vector<std::uint8_t> encoded = {0x80, 0x80, 0x80, 0x80,
                                             0x80, 0x01, 0x00};
  std::vector<std::uint8_t> out(kEdgeBytes);
  EXPECT_EQ(VarintDeltaCodec().Decode(encoded, out).code(),
            StatusCode::kCorruptData);
}

TEST(VarintDelta, DecodeRejectsNegativeFirstId) {
  // zigzag(1) = -1: src would step below 0 from the implicit origin.
  const std::vector<std::uint8_t> encoded = {0x01, 0x00};
  std::vector<std::uint8_t> out(kEdgeBytes);
  EXPECT_EQ(VarintDeltaCodec().Decode(encoded, out).code(),
            StatusCode::kCorruptData);
}

TEST(VarintDelta, DecodeRejectsDeltaAboveIdRange) {
  // zigzag value 2^33 decodes to delta +2^32: one past the largest step a
  // 32-bit vertex id can take from the implicit origin 0.
  const std::vector<std::uint8_t> encoded = {0x80, 0x80, 0x80, 0x80,
                                             0x20, 0x00};
  std::vector<std::uint8_t> out(kEdgeBytes);
  EXPECT_EQ(VarintDeltaCodec().Decode(encoded, out).code(),
            StatusCode::kCorruptData);
}

TEST(VarintDelta, DecodeRejectsRaggedOutputSize) {
  const std::vector<std::uint8_t> encoded =
      EncodeOrDie(VarintDeltaCodec(), PayloadOf({{7, 9}}));
  std::vector<std::uint8_t> out(kEdgeBytes + 1);
  EXPECT_EQ(VarintDeltaCodec().Decode(encoded, out).code(),
            StatusCode::kCorruptData);
}

TEST(VarintDelta, MaxCompressedSizeBoundsWorstCase) {
  // The 0 <-> UINT32_MAX swing payload is the documented worst case; its
  // encoding must respect MaxCompressedSize.
  std::vector<Edge> edges;
  for (int i = 0; i < 32; ++i) {
    edges.push_back(i % 2 == 0 ? Edge{0, UINT32_MAX} : Edge{UINT32_MAX, 0});
  }
  const std::vector<std::uint8_t> raw = PayloadOf(edges);
  const std::vector<std::uint8_t> encoded =
      EncodeOrDie(VarintDeltaCodec(), raw);
  EXPECT_LE(encoded.size(), VarintDeltaCodec().MaxCompressedSize(raw.size()));
}

// --- decode kernels -------------------------------------------------------
//
// Every kernel is run against the checked decoder. The checked decoder's
// streams above are at most 7 bytes long, which only reaches a kernel's
// tail loop; the cases below put each malformed varint inside a stream of
// several KiB, so the word-at-a-time and SIMD paths meet it themselves.

/// Output bytes are compared from a sentinel fill, so a kernel that stored
/// anything the checked decoder did not (even after a rejection) fails.
constexpr std::uint8_t kSentinel = 0xA5;

struct Outcome {
  StatusCode code;
  std::string message;
  std::vector<std::uint8_t> out;
};

Outcome RunDecode(Status (*decode)(std::span<const std::uint8_t>,
                                   std::span<std::uint8_t>),
                  std::span<const std::uint8_t> encoded,
                  std::size_t raw_size) {
  Outcome o;
  o.out.assign(raw_size, kSentinel);
  const Status status = decode(encoded, o.out);
  o.code = status.code();
  o.message = std::string(status.message());
  return o;
}

/// Asserts that every kernel, fed `encoded` from each misalignment 0..7,
/// produces the checked decoder's status code, message and output bytes.
/// Returns the checked outcome.
Outcome ExpectKernelsMatchChecked(const std::vector<std::uint8_t>& encoded,
                                  std::size_t raw_size,
                                  const std::string& what) {
  const Outcome want =
      RunDecode(&VarintDeltaDecodeChecked, encoded, raw_size);
  std::vector<std::uint8_t> shifted(encoded.size() + 8);
  for (std::size_t align = 0; align < 8; ++align) {
    std::copy(encoded.begin(), encoded.end(), shifted.begin() + align);
    const std::span<const std::uint8_t> in(shifted.data() + align,
                                           encoded.size());
    for (const VarintDeltaKernel& kernel : VarintDeltaKernels()) {
      const Outcome got = RunDecode(kernel.decode, in, raw_size);
      EXPECT_EQ(got.code, want.code) << kernel.name << " " << what;
      EXPECT_EQ(got.message, want.message) << kernel.name << " " << what;
      EXPECT_TRUE(got.out == want.out)
          << kernel.name << " " << what << ": output bytes differ";
    }
  }
  return want;
}

std::vector<std::uint8_t> Varint(std::uint64_t zigzag) {
  std::vector<std::uint8_t> out;
  while (zigzag >= 0x80) {
    out.push_back(static_cast<std::uint8_t>(zigzag) | 0x80);
    zigzag >>= 7;
  }
  out.push_back(static_cast<std::uint8_t>(zigzag));
  return out;
}

std::uint64_t Zigzag(std::int64_t v) {
  return (static_cast<std::uint64_t>(v) << 1) ^
         static_cast<std::uint64_t>(v >> 63);
}

/// Edges in the shapes a kernel must handle: (src,dst)-sorted with small
/// gaps (grid sub-blocks), the same just below UINT32_MAX (ids >= 2^31,
/// small deltas), sorted and so dense that every delta is a one-byte
/// varint, unsorted ids, and 0 <-> UINT32_MAX swings.
enum class Shape { kSorted, kHighIds, kDense, kUnsorted, kSwings };

constexpr Shape kShapes[] = {Shape::kSorted, Shape::kHighIds, Shape::kDense,
                             Shape::kUnsorted, Shape::kSwings};

std::vector<Edge> RandomEdges(Shape shape, std::size_t n, Xoshiro256& rng) {
  std::vector<Edge> edges(n);
  for (Edge& e : edges) {
    switch (shape) {
      case Shape::kSorted:
        e = {static_cast<VertexId>(rng.NextBounded(n / 3 + 1)),
             static_cast<VertexId>(rng.NextBounded(1 << 14))};
        break;
      case Shape::kHighIds:
        e = {UINT32_MAX - static_cast<VertexId>(rng.NextBounded(n / 3 + 1)),
             UINT32_MAX - static_cast<VertexId>(rng.NextBounded(1 << 14))};
        break;
      case Shape::kDense:
        e = {static_cast<VertexId>(rng.NextBounded(n / 4 + 1)),
             static_cast<VertexId>(rng.NextBounded(60))};
        break;
      case Shape::kUnsorted:
        e = {static_cast<VertexId>(rng.Next()),
             static_cast<VertexId>(rng.NextBounded(1u << (rng.Next() % 32)))};
        break;
      case Shape::kSwings:
        e = {rng.Next() % 2 ? UINT32_MAX : 0u,
             rng.Next() % 2 ? UINT32_MAX : static_cast<VertexId>(
                                               rng.NextBounded(300))};
        break;
    }
  }
  if (shape == Shape::kSorted || shape == Shape::kHighIds ||
      shape == Shape::kDense) {
    std::sort(edges.begin(), edges.end(), [](const Edge& a, const Edge& b) {
      return a.src != b.src ? a.src < b.src : a.dst < b.dst;
    });
  }
  return edges;
}

/// Where each varint of an encoded edge stream starts, and the id its delta
/// applies to.
struct Slot {
  std::size_t offset;
  std::size_t value;  // 2 * edge index (+1 for dst)
  VertexId prev;
};

std::vector<Slot> Slots(const std::vector<std::uint8_t>& encoded,
                        const std::vector<Edge>& edges) {
  std::vector<Slot> slots;
  std::size_t offset = 0;
  for (std::size_t v = 0; v < 2 * edges.size(); ++v) {
    const std::size_t e = v / 2;
    const VertexId prev =
        e == 0 ? 0 : (v % 2 == 0 ? edges[e - 1].src : edges[e - 1].dst);
    slots.push_back({offset, v, prev});
    while (encoded[offset] & 0x80) ++offset;
    ++offset;
  }
  return slots;
}

/// A sorted stream of at least 4 KiB with its edges and varint slots.
struct LongStream {
  std::vector<Edge> edges;
  std::vector<std::uint8_t> encoded;
  std::vector<Slot> slots;
};

LongStream MakeLongStream(Shape shape = Shape::kSorted) {
  Xoshiro256 rng(17);
  LongStream s;
  s.edges = RandomEdges(shape, 2400, rng);
  s.encoded = EncodeOrDie(VarintDeltaCodec(), PayloadOf(s.edges));
  s.slots = Slots(s.encoded, s.edges);
  EXPECT_GE(s.encoded.size(), 4096u);
  return s;
}

/// The slots a malformed varint is placed at: the first few, a few in the
/// middle, and every slot that starts in the last 16 bytes.
std::vector<Slot> ProbeSlots(const LongStream& s) {
  std::vector<Slot> out;
  const std::size_t n = s.slots.size();
  for (std::size_t k : {std::size_t{0}, std::size_t{1}, std::size_t{2},
                        std::size_t{3}, n / 2, n / 2 + 1}) {
    out.push_back(s.slots[k]);
  }
  for (const Slot& slot : s.slots) {
    if (slot.offset + 16 >= s.encoded.size()) out.push_back(slot);
  }
  return out;
}

/// `s.encoded` with the varint at `slot` replaced by `bytes`.
std::vector<std::uint8_t> ReplaceVarint(const LongStream& s, const Slot& slot,
                                        const std::vector<std::uint8_t>& bytes) {
  const std::size_t end = slot.value + 1 < s.slots.size()
                              ? s.slots[slot.value + 1].offset
                              : s.encoded.size();
  std::vector<std::uint8_t> out(s.encoded.begin(),
                                s.encoded.begin() + slot.offset);
  out.insert(out.end(), bytes.begin(), bytes.end());
  out.insert(out.end(), s.encoded.begin() + end, s.encoded.end());
  return out;
}

TEST(VarintDeltaKernels, PortableFirstDispatchedLast) {
  const auto kernels = VarintDeltaKernels();
  ASSERT_FALSE(kernels.empty());
  EXPECT_STREQ(kernels.front().name, "scalar");
  EXPECT_STREQ(VarintDeltaImplementation(), kernels.back().name);
}

TEST(VarintDeltaKernels, RandomRoundTripsMatchCheckedAtEveryTailLength) {
  // Edge counts 0..40 sweep every tail length of every fast path; the
  // larger counts add long bulk runs before each tail.
  Xoshiro256 rng(20240917);
  for (Shape shape : kShapes) {
    for (std::size_t n = 0; n <= 40; ++n) {
      for (std::size_t extra : {std::size_t{0}, std::size_t{700}}) {
        const std::vector<Edge> edges = RandomEdges(shape, n + extra, rng);
        const std::vector<std::uint8_t> raw = PayloadOf(edges);
        const std::vector<std::uint8_t> encoded =
            EncodeOrDie(VarintDeltaCodec(), raw);
        const std::string what = "shape " +
                                 std::to_string(static_cast<int>(shape)) +
                                 " edges " + std::to_string(n + extra);
        const Outcome want =
            ExpectKernelsMatchChecked(encoded, raw.size(), what);
        EXPECT_EQ(want.code, StatusCode::kOk) << what;
        EXPECT_TRUE(want.out == raw) << what;
      }
    }
  }
}

TEST(VarintDeltaKernels, TruncationInsideLongStreamMatchesChecked) {
  const LongStream s = MakeLongStream();
  const std::size_t raw_size = s.edges.size() * kEdgeBytes;
  std::vector<std::size_t> cuts = {0, 1, 2, 3, s.encoded.size() / 2};
  for (std::size_t k = 1; k <= 16; ++k) cuts.push_back(s.encoded.size() - k);
  for (std::size_t cut : cuts) {
    const std::vector<std::uint8_t> head(s.encoded.begin(),
                                         s.encoded.begin() + cut);
    const Outcome want = ExpectKernelsMatchChecked(
        head, raw_size, "cut at " + std::to_string(cut));
    EXPECT_EQ(want.code, StatusCode::kCorruptData) << "cut at " << cut;
  }
}

TEST(VarintDeltaKernels, SixByteVarintInsideLongStreamMatchesChecked) {
  const LongStream s = MakeLongStream();
  const std::vector<std::uint8_t> overlong = {0x80, 0x80, 0x80,
                                              0x80, 0x80, 0x01};
  for (const Slot& slot : ProbeSlots(s)) {
    const Outcome want = ExpectKernelsMatchChecked(
        ReplaceVarint(s, slot, overlong), s.edges.size() * kEdgeBytes,
        "overlong at " + std::to_string(slot.offset));
    EXPECT_EQ(want.message, "varint-delta codec: varint too long");
  }
}

TEST(VarintDeltaKernels, NegativeIdInsideLongStreamMatchesChecked) {
  // At slot 0 this is the negative first id; elsewhere a delta one below
  // the column's previous id.
  const LongStream s = MakeLongStream();
  for (const Slot& slot : ProbeSlots(s)) {
    const std::int64_t delta = -static_cast<std::int64_t>(slot.prev) - 1;
    const Outcome want = ExpectKernelsMatchChecked(
        ReplaceVarint(s, slot, Varint(Zigzag(delta))),
        s.edges.size() * kEdgeBytes,
        "negative at " + std::to_string(slot.offset));
    EXPECT_EQ(want.message, "varint-delta codec: delta out of range");
  }
}

TEST(VarintDeltaKernels, DeltaAboveIdRangeInsideLongStreamMatchesChecked) {
  // From low ids the overflowing delta takes a 5-byte varint; just below
  // UINT32_MAX it is small, so the bulk paths meet it themselves.
  for (Shape shape : {Shape::kSorted, Shape::kHighIds}) {
    const LongStream s = MakeLongStream(shape);
    for (const Slot& slot : ProbeSlots(s)) {
      const std::int64_t delta =
          static_cast<std::int64_t>(UINT32_MAX) + 1 - slot.prev;
      const Outcome want = ExpectKernelsMatchChecked(
          ReplaceVarint(s, slot, Varint(Zigzag(delta))),
          s.edges.size() * kEdgeBytes,
          "above at " + std::to_string(slot.offset));
      EXPECT_EQ(want.message, "varint-delta codec: delta out of range");
    }
  }
}

TEST(VarintDeltaKernels, TrailingBytesInsideLongStreamMatchesChecked) {
  // Asking for fewer edges than the stream holds leaves the rest trailing.
  const LongStream s = MakeLongStream();
  for (const Slot& slot : ProbeSlots(s)) {
    if (slot.value % 2 != 0) continue;
    const std::size_t edges = slot.value / 2;
    const Outcome want = ExpectKernelsMatchChecked(
        s.encoded, edges * kEdgeBytes,
        "trailing after " + std::to_string(edges) + " edges");
    EXPECT_EQ(want.message, "varint-delta codec: trailing bytes after edges");
  }
  std::vector<std::uint8_t> appended = s.encoded;
  appended.push_back(0x00);
  const Outcome want = ExpectKernelsMatchChecked(
      appended, s.edges.size() * kEdgeBytes, "one appended byte");
  EXPECT_EQ(want.message, "varint-delta codec: trailing bytes after edges");
}

TEST(VarintDeltaKernels, RaggedOutputSizeOnLongStreamMatchesChecked) {
  const LongStream s = MakeLongStream();
  const std::size_t raw_size = s.edges.size() * kEdgeBytes;
  for (std::size_t ragged :
       {raw_size - 7, raw_size - 1, raw_size + 1, raw_size + 3,
        raw_size / 2 + 5}) {
    const Outcome want = ExpectKernelsMatchChecked(
        s.encoded, ragged, "raw size " + std::to_string(ragged));
    EXPECT_EQ(want.code, StatusCode::kCorruptData);
  }
}

TEST(VarintDeltaKernels, PaddedNonCanonicalVarintsStayAccepted) {
  // 0x80 0x00 is a two-byte encoding of 0. The checked decoder has always
  // accepted such padded varints, so every kernel must too.
  const std::vector<std::uint8_t> padded_zero = {0x80, 0x00, 0x80, 0x00};
  const Outcome tiny =
      ExpectKernelsMatchChecked(padded_zero, kEdgeBytes, "padded zero");
  EXPECT_EQ(tiny.code, StatusCode::kOk);
  EXPECT_TRUE(tiny.out == PayloadOf({{0, 0}}));

  // Padding every other one-byte varint of a long stream to two bytes
  // changes the encoding, not the edges.
  const LongStream s = MakeLongStream();
  std::vector<std::uint8_t> padded;
  for (std::size_t k = 0; k < s.slots.size(); ++k) {
    const std::size_t begin = s.slots[k].offset;
    const std::size_t end =
        k + 1 < s.slots.size() ? s.slots[k + 1].offset : s.encoded.size();
    if (end - begin == 1 && k % 2 == 0) {
      padded.push_back(s.encoded[begin] | 0x80);
      padded.push_back(0x00);
    } else {
      padded.insert(padded.end(), s.encoded.begin() + begin,
                    s.encoded.begin() + end);
    }
  }
  ASSERT_GT(padded.size(), s.encoded.size());
  const Outcome want = ExpectKernelsMatchChecked(
      padded, s.edges.size() * kEdgeBytes, "padded long stream");
  EXPECT_EQ(want.code, StatusCode::kOk);
  EXPECT_TRUE(want.out == PayloadOf(s.edges));
}

/// Two anonymous pages, the second PROT_NONE: a span ending at `end()`
/// ends flush against memory whose every access faults.
class GuardedPage {
 public:
  GuardedPage() : page_(static_cast<std::size_t>(::sysconf(_SC_PAGESIZE))) {
    void* p = ::mmap(nullptr, 2 * page_, PROT_READ | PROT_WRITE,
                     MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
    EXPECT_NE(p, MAP_FAILED);
    base_ = static_cast<std::uint8_t*>(p);
    EXPECT_EQ(::mprotect(base_ + page_, page_, PROT_NONE), 0);
  }
  ~GuardedPage() { ::munmap(base_, 2 * page_); }
  GuardedPage(const GuardedPage&) = delete;
  GuardedPage& operator=(const GuardedPage&) = delete;

  std::size_t size() const noexcept { return page_; }
  /// The last `n` bytes before the guard page.
  std::span<std::uint8_t> Tail(std::size_t n) const {
    return {base_ + page_ - n, n};
  }

 private:
  std::size_t page_;
  std::uint8_t* base_ = nullptr;
};

TEST(VarintDeltaKernels, NeverTouchBytesPastEitherBuffer) {
  // Input and output both end flush against a PROT_NONE page: a load past
  // `encoded` or a store past `raw_out` faults in any build, not only
  // under a sanitizer. Every cut in the last 64 bytes (a bulk window) ends
  // the input early; an output edges short leaves input over (trailing
  // bytes), and one edges long keeps the bulk paths running right up to
  // the end of the input.
  GuardedPage in_page;
  GuardedPage out_page;
  Xoshiro256 rng(5);
  for (Shape shape : kShapes) {
    for (std::size_t n : {0, 1, 2, 3, 5, 8, 13, 21, 100, 333}) {
      const std::vector<Edge> edges = RandomEdges(shape, n, rng);
      const std::vector<std::uint8_t> raw = PayloadOf(edges);
      const std::vector<std::uint8_t> encoded =
          EncodeOrDie(VarintDeltaCodec(), raw);
      ASSERT_LE(encoded.size(), in_page.size());
      for (std::size_t cut = encoded.size() > 64 ? encoded.size() - 64 : 0;
           cut <= encoded.size(); ++cut) {
        const std::span<std::uint8_t> in = in_page.Tail(cut);
        std::copy(encoded.begin(), encoded.begin() + cut, in.begin());
        for (std::size_t out_edges : {n, n - 1, n - 3, n / 2, n + 64}) {
          if (out_edges > n + 64) continue;  // n - k wrapped below zero
          ASSERT_LE(out_edges * kEdgeBytes, out_page.size());
          const std::span<std::uint8_t> out =
              out_page.Tail(out_edges * kEdgeBytes);
          const StatusCode want = VarintDeltaDecodeChecked(in, out).code();
          if (cut == encoded.size() && out_edges == n) {
            EXPECT_EQ(want, StatusCode::kOk);
          }
          for (const VarintDeltaKernel& kernel : VarintDeltaKernels()) {
            const Status status = kernel.decode(in, out);
            EXPECT_EQ(status.code(), want)
                << kernel.name << " edges " << n << " cut " << cut
                << " output edges " << out_edges;
            if (status.ok()) {
              EXPECT_TRUE(std::equal(out.begin(), out.end(), raw.begin()))
                  << kernel.name << " edges " << n;
            }
          }
        }
      }
    }
  }
}

TEST(VarintDeltaKernels, EveryFrameOfABuiltWebDatasetMatchesChecked) {
  WebGraphOptions options;
  options.num_vertices = 1 << 13;
  options.whisker_fraction = 0.12;
  const EdgeList graph = GenerateWebGraph(options);
  TempDir dir;
  auto device = io::MakePosixDevice();
  BuildTestGrid(graph, *device, dir.Sub("ds"), 4, "web", "varint-delta");
  const partition::GridDataset dataset =
      ValueOrDie(partition::GridDataset::Open(*device, dir.Sub("ds")));
  std::size_t frames = 0;
  for (std::uint32_t i = 0; i < dataset.p(); ++i) {
    for (std::uint32_t j = 0; j < dataset.p(); ++j) {
      const std::uint64_t edges = dataset.manifest().EdgesIn(i, j);
      auto payload = ValueOrDie(dataset.FetchSubBlock(i, j, false));
      const FrameHeader header = ValueOrDie(ParseFrameHeader(payload.frame));
      if (header.codec_id != static_cast<std::uint32_t>(CodecId::kVarintDelta)) {
        continue;
      }
      const std::vector<std::uint8_t> encoded(
          payload.frame.begin() + kFrameHeaderBytes, payload.frame.end());
      const Outcome want = ExpectKernelsMatchChecked(
          encoded, edges * kEdgeBytes,
          "sub-block " + std::to_string(i) + "," + std::to_string(j));
      EXPECT_EQ(want.code, StatusCode::kOk);
      ++frames;
    }
  }
  EXPECT_GT(frames, 0u);
}

}  // namespace
}  // namespace graphsd::compress
