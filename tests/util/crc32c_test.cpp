#include "util/crc32c.hpp"

#include <cstdint>
#include <string>
#include <vector>

#include <gtest/gtest.h>

namespace graphsd {
namespace {

std::uint32_t CrcOf(const std::string& s) {
  return Crc32c(0, s.data(), s.size());
}

TEST(Crc32c, MatchesRfc3720CheckVector) {
  // The canonical CRC32C (Castagnoli) check value, e.g. RFC 3720 §B.4.
  EXPECT_EQ(CrcOf("123456789"), 0xE3069283u);
}

TEST(Crc32c, EmptyInputIsZero) {
  EXPECT_EQ(CrcOf(""), 0u);
  EXPECT_EQ(Crc32c(std::span<const std::uint8_t>{}), 0u);
}

TEST(Crc32c, IncrementalEqualsOneShot) {
  const std::string text = "the quick brown fox jumps over the lazy dog";
  const std::uint32_t whole = CrcOf(text);
  for (std::size_t split = 0; split <= text.size(); split += 7) {
    std::uint32_t crc = Crc32c(0, text.data(), split);
    crc = Crc32c(crc, text.data() + split, text.size() - split);
    EXPECT_EQ(crc, whole) << "split at " << split;
  }
}

TEST(Crc32c, SpanOverloadMatchesPointerOverload) {
  const std::vector<std::uint8_t> data = {0x00, 0xFF, 0x42, 0x13, 0x37};
  EXPECT_EQ(Crc32c(std::span<const std::uint8_t>(data)),
            Crc32c(0, data.data(), data.size()));
}

TEST(Crc32c, DetectsSingleBitFlips) {
  // Every single-bit corruption of a small payload must change the CRC —
  // this is the property the dataset verifier relies on.
  std::vector<std::uint8_t> data(64);
  for (std::size_t i = 0; i < data.size(); ++i) {
    data[i] = static_cast<std::uint8_t>(i * 37 + 11);
  }
  const std::uint32_t clean = Crc32c(std::span<const std::uint8_t>(data));
  for (std::size_t byte = 0; byte < data.size(); ++byte) {
    for (int bit = 0; bit < 8; ++bit) {
      data[byte] ^= static_cast<std::uint8_t>(1u << bit);
      EXPECT_NE(Crc32c(std::span<const std::uint8_t>(data)), clean)
          << "byte " << byte << " bit " << bit;
      data[byte] ^= static_cast<std::uint8_t>(1u << bit);
    }
  }
}

TEST(Crc32c, DetectsSwappedBlocks) {
  // CRCs of concatenations must be order-sensitive.
  EXPECT_NE(CrcOf("abcdef"), CrcOf("defabc"));
}

TEST(Crc32cPortable, MatchesRfc3720CheckVector) {
  EXPECT_EQ(Crc32cPortable(0, "123456789", 9), 0xE3069283u);
  EXPECT_EQ(Crc32cPortable(0, "", 0), 0u);
}

TEST(Crc32cPortable, DispatchedPathAgreesOnEveryLengthAndAlignment) {
  // Lengths 0..4100 cover the 8-byte main loop, every tail length and
  // multi-page inputs; offsets 0..7 cover every misalignment of the
  // 8-byte loads.
  constexpr std::size_t kMaxLen = 4100;
  std::vector<std::uint8_t> data(kMaxLen + 8);
  std::uint32_t x = 0x9E3779B9u;
  for (auto& b : data) {
    x = x * 1664525u + 1013904223u;
    b = static_cast<std::uint8_t>(x >> 24);
  }
  for (std::size_t offset = 0; offset < 8; ++offset) {
    for (std::size_t len = 0; len <= kMaxLen; ++len) {
      const std::uint8_t* p = data.data() + offset;
      ASSERT_EQ(Crc32c(0, p, len), Crc32cPortable(0, p, len))
          << "offset " << offset << " length " << len;
    }
  }
}

TEST(Crc32cPortable, ChainedCallsAgreeWithDispatchedPath) {
  std::vector<std::uint8_t> data(1031);
  for (std::size_t i = 0; i < data.size(); ++i) {
    data[i] = static_cast<std::uint8_t>(i * 131 + 7);
  }
  const std::uint32_t whole = Crc32cPortable(0, data.data(), data.size());
  EXPECT_EQ(Crc32c(0, data.data(), data.size()), whole);
  for (std::size_t split = 0; split <= data.size(); split += 13) {
    const std::uint32_t head = Crc32c(0, data.data(), split);
    EXPECT_EQ(head, Crc32cPortable(0, data.data(), split));
    EXPECT_EQ(Crc32cPortable(head, data.data() + split, data.size() - split),
              whole);
    EXPECT_EQ(Crc32c(head, data.data() + split, data.size() - split), whole);
  }
}

TEST(Crc32cImplementation, UsesSse42WhenTheCpuHasIt) {
  const std::string name = Crc32cImplementation();
#if defined(__x86_64__)
  if (__builtin_cpu_supports("sse4.2")) {
    EXPECT_EQ(name, "sse4.2");
    return;
  }
#endif
  EXPECT_EQ(name, "slice-by-8");
}

}  // namespace
}  // namespace graphsd
