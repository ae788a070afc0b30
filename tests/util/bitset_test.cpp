#include "util/bitset.hpp"

#include <algorithm>
#include <set>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "util/rng.hpp"

namespace graphsd {
namespace {

TEST(ConcurrentBitset, StartsEmpty) {
  ConcurrentBitset bits(100);
  EXPECT_EQ(bits.size(), 100u);
  EXPECT_EQ(bits.Count(), 0u);
  EXPECT_TRUE(bits.None());
  for (std::size_t i = 0; i < 100; ++i) EXPECT_FALSE(bits.Test(i));
}

TEST(ConcurrentBitset, SetTestClear) {
  ConcurrentBitset bits(130);  // spans three words
  bits.Set(0);
  bits.Set(63);
  bits.Set(64);
  bits.Set(129);
  EXPECT_TRUE(bits.Test(0));
  EXPECT_TRUE(bits.Test(63));
  EXPECT_TRUE(bits.Test(64));
  EXPECT_TRUE(bits.Test(129));
  EXPECT_FALSE(bits.Test(1));
  EXPECT_EQ(bits.Count(), 4u);
  bits.Clear(63);
  EXPECT_FALSE(bits.Test(63));
  EXPECT_EQ(bits.Count(), 3u);
}

TEST(ConcurrentBitset, TestAndSetReportsFirstSetter) {
  ConcurrentBitset bits(10);
  EXPECT_TRUE(bits.TestAndSet(3));
  EXPECT_FALSE(bits.TestAndSet(3));
  EXPECT_TRUE(bits.Test(3));
}

TEST(ConcurrentBitset, SetAllRespectsSize) {
  ConcurrentBitset bits(70);  // non-multiple of 64
  bits.SetAll();
  EXPECT_EQ(bits.Count(), 70u);
  bits.ClearAll();
  EXPECT_EQ(bits.Count(), 0u);
}

TEST(ConcurrentBitset, SetAllExactWordBoundary) {
  ConcurrentBitset bits(128);
  bits.SetAll();
  EXPECT_EQ(bits.Count(), 128u);
}

TEST(ConcurrentBitset, ForEachSetVisitsAscending) {
  ConcurrentBitset bits(200);
  const std::vector<std::size_t> expected = {0, 5, 63, 64, 65, 128, 199};
  for (auto i : expected) bits.Set(i);
  std::vector<std::size_t> seen;
  bits.ForEachSet([&](std::size_t i) { seen.push_back(i); });
  EXPECT_EQ(seen, expected);
}

TEST(ConcurrentBitset, ForEachSetInRangeClipsBothEnds) {
  ConcurrentBitset bits(256);
  for (std::size_t i = 0; i < 256; i += 3) bits.Set(i);
  std::vector<std::size_t> seen;
  bits.ForEachSetInRange(10, 70, [&](std::size_t i) { seen.push_back(i); });
  for (auto i : seen) {
    EXPECT_GE(i, 10u);
    EXPECT_LT(i, 70u);
    EXPECT_EQ(i % 3, 0u);
  }
  EXPECT_EQ(seen.size(), bits.CountInRange(10, 70));
}

TEST(ConcurrentBitset, RangeWithinSingleWord) {
  ConcurrentBitset bits(64);
  bits.Set(5);
  bits.Set(9);
  bits.Set(20);
  std::vector<std::size_t> seen;
  bits.ForEachSetInRange(6, 20, [&](std::size_t i) { seen.push_back(i); });
  EXPECT_EQ(seen, std::vector<std::size_t>{9});
}

TEST(ConcurrentBitset, EmptyAndDegenerateRanges) {
  ConcurrentBitset bits(64);
  bits.SetAll();
  EXPECT_EQ(bits.CountInRange(10, 10), 0u);
  EXPECT_EQ(bits.CountInRange(20, 10), 0u);
  EXPECT_EQ(bits.CountInRange(60, 500), 4u);  // clipped to size
}

TEST(ConcurrentBitset, CopyFromAndSwap) {
  ConcurrentBitset a(100);
  ConcurrentBitset b(100);
  a.Set(1);
  a.Set(99);
  b.CopyFrom(a);
  EXPECT_TRUE(b.Test(1));
  EXPECT_TRUE(b.Test(99));
  b.ClearAll();
  b.Set(50);
  a.Swap(b);
  EXPECT_TRUE(a.Test(50));
  EXPECT_FALSE(a.Test(1));
  EXPECT_TRUE(b.Test(1));
}

TEST(ConcurrentBitset, ConcurrentTestAndSetElectsOneWinnerPerBit) {
  constexpr std::size_t kBits = 4096;
  ConcurrentBitset bits(kBits);
  std::atomic<std::size_t> wins{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&] {
      for (std::size_t i = 0; i < kBits; ++i) {
        if (bits.TestAndSet(i)) wins.fetch_add(1);
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(wins.load(), kBits);
  EXPECT_EQ(bits.Count(), kBits);
}

TEST(ConcurrentBitsetProperty, CountMatchesReferenceSet) {
  Xoshiro256 rng(7);
  for (int round = 0; round < 20; ++round) {
    const std::size_t size = 1 + rng.NextBounded(500);
    ConcurrentBitset bits(size);
    std::set<std::size_t> reference;
    for (int op = 0; op < 200; ++op) {
      const std::size_t i = rng.NextBounded(size);
      if (rng.NextBounded(3) == 0) {
        bits.Clear(i);
        reference.erase(i);
      } else {
        bits.Set(i);
        reference.insert(i);
      }
    }
    EXPECT_EQ(bits.Count(), reference.size());
    std::vector<std::size_t> seen;
    bits.ForEachSet([&](std::size_t i) { seen.push_back(i); });
    EXPECT_EQ(seen, std::vector<std::size_t>(reference.begin(), reference.end()));
  }
}

TEST(ConcurrentBitset, FindNextSetAcrossWordBoundaries) {
  ConcurrentBitset bits(200);  // four words, the last one partial
  bits.Set(0);
  bits.Set(63);
  bits.Set(64);
  bits.Set(130);
  bits.Set(199);
  EXPECT_EQ(bits.FindNextSet(0, 200), 0u);
  EXPECT_EQ(bits.FindNextSet(1, 200), 63u);
  EXPECT_EQ(bits.FindNextSet(63, 200), 63u);
  EXPECT_EQ(bits.FindNextSet(64, 200), 64u);
  EXPECT_EQ(bits.FindNextSet(65, 200), 130u);  // skips a whole clear word
  EXPECT_EQ(bits.FindNextSet(131, 200), 199u);
  EXPECT_EQ(bits.FindNextSet(199, 200), 199u);
}

TEST(ConcurrentBitset, FindNextSetClipsAtEnd) {
  ConcurrentBitset bits(200);
  bits.Set(70);
  bits.Set(150);
  // A set bit at or past `end` is not found: the result is `end`.
  EXPECT_EQ(bits.FindNextSet(0, 70), 70u);
  EXPECT_EQ(bits.FindNextSet(0, 71), 70u);
  EXPECT_EQ(bits.FindNextSet(71, 150), 150u);
  EXPECT_EQ(bits.FindNextSet(71, 100), 100u);
  EXPECT_EQ(bits.FindNextSet(71, 128), 128u);  // end on a word boundary
  // `end` past size(): the bits past size() are clear.
  EXPECT_EQ(bits.FindNextSet(151, 1000), 1000u);
  EXPECT_EQ(bits.FindNextSet(100, 1000), 150u);
}

TEST(ConcurrentBitset, FindNextSetOnEmptyRanges) {
  ConcurrentBitset bits(130);
  bits.SetAll();
  EXPECT_EQ(bits.FindNextSet(5, 5), 5u);
  EXPECT_EQ(bits.FindNextSet(9, 5), 5u);
  EXPECT_EQ(bits.FindNextSet(130, 140), 140u);
  EXPECT_EQ(bits.FindNextSet(129, 140), 129u);
  ConcurrentBitset none;
  EXPECT_EQ(none.FindNextSet(0, 10), 10u);
  ConcurrentBitset clear(130);
  EXPECT_EQ(clear.FindNextSet(0, 130), 130u);
}

TEST(ConcurrentBitsetProperty, FindNextSetMatchesLinearScan) {
  Xoshiro256 rng(27);
  for (int round = 0; round < 20; ++round) {
    const std::size_t size = 1 + rng.NextBounded(500);  // rarely a multiple of 64
    ConcurrentBitset bits(size);
    const std::uint64_t density = 1 + rng.NextBounded(64);
    for (std::size_t i = 0; i < size; ++i) {
      if (rng.NextBounded(density) == 0) bits.Set(i);
    }
    for (int query = 0; query < 100; ++query) {
      const std::size_t begin = rng.NextBounded(size + 70);
      const std::size_t end = rng.NextBounded(size + 70);
      std::size_t want = end;
      for (std::size_t i = begin; i < std::min(end, size); ++i) {
        if (bits.Test(i)) {
          want = i;
          break;
        }
      }
      EXPECT_EQ(bits.FindNextSet(begin, end), want)
          << "size " << size << " [" << begin << ", " << end << ")";
    }
  }
}

}  // namespace
}  // namespace graphsd
