#include "core/sub_block_buffer.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <thread>
#include <vector>

namespace graphsd::core {
namespace {

BufferPool& Pool() {
  static BufferPool pool;
  return pool;
}

partition::SubBlock MakeBlock(std::size_t num_edges) {
  partition::SubBlock block;
  block.edges = PooledArray<Edge>(Pool(), num_edges);
  std::fill(block.edges.begin(), block.edges.end(), Edge{1, 2});
  return block;
}

partition::SubBlock MakeWeightedBlock(std::size_t num_edges) {
  partition::SubBlock block = MakeBlock(num_edges);
  block.weights = PooledArray<Weight>(Pool(), num_edges);
  std::fill(block.weights.begin(), block.weights.end(), Weight{1});
  return block;
}

TEST(SubBlockBuffer, DisabledBufferRejectsEverything) {
  SubBlockBuffer buffer(0);
  EXPECT_FALSE(buffer.enabled());
  EXPECT_FALSE(buffer.Put(0, 1, MakeBlock(1), 100));
  EXPECT_FALSE(buffer.Get(0, 1));
  EXPECT_EQ(buffer.hits(), 0u);
  EXPECT_EQ(buffer.misses(), 0u);  // disabled Get doesn't count a miss
}

TEST(SubBlockBuffer, PutThenGetHits) {
  SubBlockBuffer buffer(1 << 20);
  ASSERT_TRUE(buffer.Put(1, 0, MakeBlock(10), 5));
  SubBlockBuffer::Pin block = buffer.Get(1, 0);
  ASSERT_TRUE(block);
  EXPECT_EQ(block->edges.size(), 10u);
  EXPECT_EQ(buffer.hits(), 1u);
  EXPECT_EQ(buffer.bytes_saved(), 10 * sizeof(Edge));
}

TEST(SubBlockBuffer, MissCountsAndReturnsEmptyPin) {
  SubBlockBuffer buffer(1 << 20);
  EXPECT_FALSE(buffer.Get(3, 3));
  EXPECT_EQ(buffer.misses(), 1u);
}

TEST(SubBlockBuffer, RejectsBlockLargerThanCapacity) {
  SubBlockBuffer buffer(64);
  EXPECT_FALSE(buffer.Put(0, 0, MakeBlock(100), 1000));
  EXPECT_EQ(buffer.size_bytes(), 0u);
}

TEST(SubBlockBuffer, EvictsLowestPriorityFirst) {
  // Capacity fits exactly two 10-edge blocks.
  SubBlockBuffer buffer(2 * 10 * sizeof(Edge));
  ASSERT_TRUE(buffer.Put(1, 0, MakeBlock(10), /*priority=*/5));
  ASSERT_TRUE(buffer.Put(2, 0, MakeBlock(10), /*priority=*/9));
  // Higher priority than the lowest entry: evicts (1,0), not (2,0).
  ASSERT_TRUE(buffer.Put(3, 0, MakeBlock(10), /*priority=*/7));
  EXPECT_FALSE(buffer.Get(1, 0));
  EXPECT_TRUE(buffer.Get(2, 0));
  EXPECT_TRUE(buffer.Get(3, 0));
}

TEST(SubBlockBuffer, RefusesInsertWhenEverythingElseIsHotter) {
  SubBlockBuffer buffer(10 * sizeof(Edge));
  ASSERT_TRUE(buffer.Put(1, 0, MakeBlock(10), 100));
  EXPECT_FALSE(buffer.Put(2, 0, MakeBlock(10), 50));  // colder: rejected
  EXPECT_TRUE(buffer.Get(1, 0));
}

TEST(SubBlockBuffer, EqualPriorityDoesNotEvict) {
  SubBlockBuffer buffer(10 * sizeof(Edge));
  ASSERT_TRUE(buffer.Put(1, 0, MakeBlock(10), 5));
  EXPECT_FALSE(buffer.Put(2, 0, MakeBlock(10), 5));
}

TEST(SubBlockBuffer, UpdatePriorityChangesEvictionOrder) {
  SubBlockBuffer buffer(2 * 10 * sizeof(Edge));
  ASSERT_TRUE(buffer.Put(1, 0, MakeBlock(10), 5));
  ASSERT_TRUE(buffer.Put(2, 0, MakeBlock(10), 6));
  buffer.UpdatePriority(2, 0, 1);  // now (2,0) is the coldest
  ASSERT_TRUE(buffer.Put(3, 0, MakeBlock(10), 4));
  EXPECT_FALSE(buffer.Get(2, 0));
  EXPECT_TRUE(buffer.Get(1, 0));
}

TEST(SubBlockBuffer, ReplacingAnEntryReleasesItsBytes) {
  SubBlockBuffer buffer(20 * sizeof(Edge));
  ASSERT_TRUE(buffer.Put(1, 0, MakeBlock(20), 5));
  EXPECT_EQ(buffer.size_bytes(), 20 * sizeof(Edge));
  ASSERT_TRUE(buffer.Put(1, 0, MakeBlock(10), 5));  // same key, smaller block
  EXPECT_EQ(buffer.size_bytes(), 10 * sizeof(Edge));
  EXPECT_EQ(buffer.Get(1, 0)->edges.size(), 10u);
}

TEST(SubBlockBuffer, EraseAndClear) {
  SubBlockBuffer buffer(1 << 20);
  ASSERT_TRUE(buffer.Put(1, 0, MakeBlock(5), 1));
  ASSERT_TRUE(buffer.Put(2, 0, MakeBlock(5), 1));
  buffer.Erase(1, 0);
  EXPECT_FALSE(buffer.Get(1, 0));
  EXPECT_TRUE(buffer.Get(2, 0));
  buffer.Clear();
  EXPECT_FALSE(buffer.Get(2, 0));
  EXPECT_EQ(buffer.size_bytes(), 0u);
  EXPECT_EQ(buffer.entry_count(), 0u);
}

TEST(SubBlockBuffer, ForEachEntryVisitsAll) {
  SubBlockBuffer buffer(1 << 20);
  ASSERT_TRUE(buffer.Put(1, 0, MakeBlock(3), 1));
  ASSERT_TRUE(buffer.Put(2, 1, MakeBlock(4), 1));
  std::size_t visited = 0;
  std::size_t total_edges = 0;
  buffer.ForEachEntry([&](std::uint32_t, std::uint32_t,
                          const partition::SubBlock& block) {
    ++visited;
    total_edges += block.edges.size();
  });
  EXPECT_EQ(visited, 2u);
  EXPECT_EQ(total_edges, 7u);
}

TEST(SubBlockBuffer, RescoreUpdatesEveryEntryAtomically) {
  SubBlockBuffer buffer(2 * 10 * sizeof(Edge));
  ASSERT_TRUE(buffer.Put(1, 0, MakeBlock(10), 100));
  ASSERT_TRUE(buffer.Put(2, 0, MakeBlock(10), 100));
  buffer.Rescore([](std::uint32_t i, std::uint32_t,
                    const partition::SubBlock&) -> std::uint64_t {
    return i == 1 ? 1 : 50;  // (1,0) becomes the coldest
  });
  ASSERT_TRUE(buffer.Put(3, 0, MakeBlock(10), 10));
  EXPECT_FALSE(buffer.Get(1, 0));
  EXPECT_TRUE(buffer.Get(2, 0));
}

TEST(SubBlockBuffer, OversizedBlockRejectedBeforeAnyEviction) {
  // Regression: an impossible insert used to flush colder residents before
  // discovering the block could never fit.
  SubBlockBuffer buffer(2 * 10 * sizeof(Edge));
  ASSERT_TRUE(buffer.Put(1, 0, MakeBlock(10), 1));
  ASSERT_TRUE(buffer.Put(2, 0, MakeBlock(10), 2));
  const std::uint64_t used = buffer.size_bytes();
  EXPECT_FALSE(buffer.Put(3, 0, MakeBlock(100), /*priority=*/1000));
  // The cache is untouched: same residents, same bytes, no evictions.
  EXPECT_TRUE(buffer.Get(1, 0));
  EXPECT_TRUE(buffer.Get(2, 0));
  EXPECT_EQ(buffer.size_bytes(), used);
  EXPECT_EQ(buffer.entry_count(), 2u);
  EXPECT_EQ(buffer.evictions(), 0u);
  EXPECT_EQ(buffer.rejected_puts(), 1u);
}

TEST(SubBlockBuffer, InfeasibleInsertDoesNotPartiallyFlush) {
  // Three residents; the incoming block is hotter than one of them but
  // evicting that one alone cannot make room. Nothing may be evicted.
  SubBlockBuffer buffer(3 * 10 * sizeof(Edge));
  ASSERT_TRUE(buffer.Put(1, 0, MakeBlock(10), 2));   // colder than incoming
  ASSERT_TRUE(buffer.Put(2, 0, MakeBlock(10), 50));  // hotter
  ASSERT_TRUE(buffer.Put(3, 0, MakeBlock(10), 60));  // hotter
  EXPECT_FALSE(buffer.Put(4, 0, MakeBlock(25), /*priority=*/10));
  EXPECT_TRUE(buffer.Get(1, 0));
  EXPECT_TRUE(buffer.Get(2, 0));
  EXPECT_TRUE(buffer.Get(3, 0));
  EXPECT_EQ(buffer.evictions(), 0u);
  EXPECT_EQ(buffer.rejected_puts(), 1u);
}

TEST(SubBlockBuffer, EqualPriorityEvictionIsDeterministic) {
  // Two equal-priority victims: the smaller (i, j) key goes first, however
  // the hash map happens to order them.
  for (int attempt = 0; attempt < 4; ++attempt) {
    SubBlockBuffer buffer(2 * 10 * sizeof(Edge));
    // Vary insertion order across attempts; the victim must not change.
    if (attempt % 2 == 0) {
      ASSERT_TRUE(buffer.Put(7, 3, MakeBlock(10), 5));
      ASSERT_TRUE(buffer.Put(2, 9, MakeBlock(10), 5));
    } else {
      ASSERT_TRUE(buffer.Put(2, 9, MakeBlock(10), 5));
      ASSERT_TRUE(buffer.Put(7, 3, MakeBlock(10), 5));
    }
    ASSERT_TRUE(buffer.Put(1, 1, MakeBlock(10), /*priority=*/6));
    EXPECT_FALSE(buffer.Get(2, 9)) << "attempt " << attempt;
    EXPECT_TRUE(buffer.Get(7, 3)) << "attempt " << attempt;
    EXPECT_TRUE(buffer.Get(1, 1)) << "attempt " << attempt;
    EXPECT_EQ(buffer.evictions(), 1u);
  }
}

TEST(SubBlockBuffer, EvictionCounterTracksVictims) {
  SubBlockBuffer buffer(2 * 10 * sizeof(Edge));
  ASSERT_TRUE(buffer.Put(1, 0, MakeBlock(10), 1));
  ASSERT_TRUE(buffer.Put(2, 0, MakeBlock(10), 2));
  EXPECT_EQ(buffer.evictions(), 0u);
  // Needs both residents gone: two evictions in one Put.
  ASSERT_TRUE(buffer.Put(3, 0, MakeBlock(20), /*priority=*/9));
  EXPECT_EQ(buffer.evictions(), 2u);
  EXPECT_EQ(buffer.entry_count(), 1u);
}

TEST(SubBlockBuffer, SameKeyReplacementIsNotAnEviction) {
  SubBlockBuffer buffer(20 * sizeof(Edge));
  ASSERT_TRUE(buffer.Put(1, 0, MakeBlock(20), 5));
  ASSERT_TRUE(buffer.Put(1, 0, MakeBlock(20), 5));
  EXPECT_EQ(buffer.evictions(), 0u);
  EXPECT_EQ(buffer.rejected_puts(), 0u);
}

TEST(SubBlockBuffer, DisabledBufferDoesNotCountRejections) {
  // A disabled buffer refuses by design, not by capacity pressure; the
  // rejected-put diagnostic stays quiet.
  SubBlockBuffer buffer(0);
  EXPECT_FALSE(buffer.Put(0, 1, MakeBlock(1), 100));
  EXPECT_EQ(buffer.rejected_puts(), 0u);
}

TEST(SubBlockBuffer, WeightsCountTowardCapacity) {
  partition::SubBlock block = MakeWeightedBlock(8);
  const std::uint64_t bytes = block.SizeBytes();
  EXPECT_EQ(bytes, 8 * sizeof(Edge) + 8 * sizeof(Weight));
  SubBlockBuffer tight(bytes - 1);
  EXPECT_FALSE(tight.Put(0, 0, std::move(block), 1));
}

// --- pinning (shared buffer tier, DESIGN.md §13) ---------------------------

TEST(SubBlockBuffer, WeightlessEntryMissesWeightedGet) {
  // Edges cached by a weightless SCIU pass must not satisfy a weighted
  // FCIU consumer; a weightless Get still hits, and so does a weighted Get
  // on an entry without edges (nothing to weigh).
  SubBlockBuffer buffer(1 << 20);
  ASSERT_TRUE(buffer.Put(1, 0, MakeBlock(8), 1));
  ASSERT_TRUE(buffer.Put(2, 0, partition::SubBlock{}, 1));
  ASSERT_TRUE(buffer.Put(3, 0, MakeWeightedBlock(8), 1));
  EXPECT_FALSE(buffer.Get(1, 0, /*require_weights=*/true));
  EXPECT_EQ(buffer.misses(), 1u);
  EXPECT_TRUE(buffer.Get(1, 0));
  EXPECT_TRUE(buffer.Get(2, 0, /*require_weights=*/true));
  SubBlockBuffer::Pin pin = buffer.Get(3, 0, /*require_weights=*/true);
  ASSERT_TRUE(pin);
  EXPECT_EQ(pin->weights.size(), 8u);
  EXPECT_EQ(buffer.hits(), 3u);
  EXPECT_EQ(buffer.misses(), 1u);
}

TEST(SubBlockBufferPin, PinnedEntryIsNeverEvicted) {
  SubBlockBuffer buffer(2 * 10 * sizeof(Edge));
  ASSERT_TRUE(buffer.Put(1, 0, MakeBlock(10), /*priority=*/1));  // coldest
  ASSERT_TRUE(buffer.Put(2, 0, MakeBlock(10), /*priority=*/2));
  SubBlockBuffer::Pin pin = buffer.Get(1, 0);
  ASSERT_TRUE(pin);
  EXPECT_EQ(buffer.pinned_count(), 1u);
  // Would normally evict (1,0); with it pinned only (2,0) is evictable.
  ASSERT_TRUE(buffer.Put(3, 0, MakeBlock(10), /*priority=*/9));
  EXPECT_TRUE(buffer.Contains(1, 0));
  EXPECT_FALSE(buffer.Contains(2, 0));
  EXPECT_EQ(pin->edges.size(), 10u);  // pointer still valid
  pin.Release();
  EXPECT_EQ(buffer.pinned_count(), 0u);
}

TEST(SubBlockBufferPin, InsertInfeasibleWhenOnlyVictimIsPinned) {
  SubBlockBuffer buffer(10 * sizeof(Edge));
  ASSERT_TRUE(buffer.Put(1, 0, MakeBlock(10), /*priority=*/1));
  SubBlockBuffer::Pin pin = buffer.Get(1, 0);
  ASSERT_TRUE(pin);
  // Hotter, but the only evictable bytes are pinned: reject, don't evict.
  EXPECT_FALSE(buffer.Put(2, 0, MakeBlock(10), /*priority=*/100));
  EXPECT_EQ(buffer.rejected_puts(), 1u);
  EXPECT_TRUE(buffer.Contains(1, 0));
}

TEST(SubBlockBufferPin, SameKeyReplacementOfPinnedEntryRejected) {
  SubBlockBuffer buffer(1 << 20);
  ASSERT_TRUE(buffer.Put(1, 0, MakeBlock(10), 5));
  SubBlockBuffer::Pin pin = buffer.Get(1, 0);
  const partition::SubBlock* before = pin.get();
  EXPECT_FALSE(buffer.Put(1, 0, MakeBlock(20), 5));
  EXPECT_EQ(buffer.pinned_rejected_puts(), 1u);
  EXPECT_EQ(pin.get(), before);  // the pinned pointer was never touched
  pin.Release();
  EXPECT_TRUE(buffer.Put(1, 0, MakeBlock(20), 5));  // unpinned: replace ok
}

TEST(SubBlockBufferPin, EraseAndClearSkipPinnedEntries) {
  SubBlockBuffer buffer(1 << 20);
  ASSERT_TRUE(buffer.Put(1, 0, MakeBlock(5), 1));
  ASSERT_TRUE(buffer.Put(2, 0, MakeBlock(5), 1));
  SubBlockBuffer::Pin pin = buffer.Get(1, 0);
  buffer.Erase(1, 0);  // no-op: pinned
  EXPECT_TRUE(buffer.Contains(1, 0));
  buffer.Clear();  // drops only (2,0)
  EXPECT_TRUE(buffer.Contains(1, 0));
  EXPECT_FALSE(buffer.Contains(2, 0));
  EXPECT_EQ(pin->edges.size(), 5u);
  pin.Release();
  buffer.Erase(1, 0);
  EXPECT_EQ(buffer.entry_count(), 0u);
}

TEST(SubBlockBufferPin, MultiplePinsOnOneEntry) {
  SubBlockBuffer buffer(1 << 20);
  ASSERT_TRUE(buffer.Put(1, 0, MakeBlock(5), 1));
  SubBlockBuffer::Pin a = buffer.Get(1, 0);
  SubBlockBuffer::Pin b = buffer.Get(1, 0);
  EXPECT_EQ(buffer.pinned_count(), 1u);
  a.Release();
  buffer.Erase(1, 0);  // still pinned by b
  EXPECT_TRUE(buffer.Contains(1, 0));
  b.Release();
  buffer.Erase(1, 0);
  EXPECT_FALSE(buffer.Contains(1, 0));
}

TEST(SubBlockBufferPin, MovedFromPinDoesNotDoubleUnpin) {
  SubBlockBuffer buffer(1 << 20);
  ASSERT_TRUE(buffer.Put(1, 0, MakeBlock(5), 1));
  SubBlockBuffer::Pin a = buffer.Get(1, 0);
  SubBlockBuffer::Pin b = std::move(a);
  EXPECT_FALSE(a);  // NOLINT(bugprone-use-after-move): asserting the state
  EXPECT_TRUE(b);
  a.Release();  // no-op on the moved-from handle
  EXPECT_EQ(buffer.pinned_count(), 1u);
  b.Release();
  EXPECT_EQ(buffer.pinned_count(), 0u);
}

// --- concurrency stress (counters exact, pins protective; TSan-clean) ------

TEST(SubBlockBufferConcurrency, CountersExactUnderConcurrentGetPut) {
  // 4 threads × 400 ops against a small buffer. Every Get outcome and Put
  // outcome is tallied locally; afterwards the buffer's counters must match
  // the tallies exactly — the "honest counters" satellite requirement.
  SubBlockBuffer buffer(8 * 16 * sizeof(Edge));
  constexpr int kThreads = 4;
  constexpr int kOps = 400;
  std::atomic<std::uint64_t> expect_hits{0};
  std::atomic<std::uint64_t> expect_misses{0};
  std::atomic<std::uint64_t> expect_accepted_puts{0};
  std::atomic<std::uint64_t> expect_rejected_puts{0};
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int op = 0; op < kOps; ++op) {
        const std::uint32_t i = static_cast<std::uint32_t>((op * 7 + t) % 12);
        if (op % 3 == 0) {
          if (buffer.Put(i, 0, MakeBlock(16),
                         /*priority=*/static_cast<std::uint64_t>(op % 50))) {
            expect_accepted_puts.fetch_add(1);
          } else {
            expect_rejected_puts.fetch_add(1);
          }
        } else {
          SubBlockBuffer::Pin pin = buffer.Get(i, 0);
          if (pin) {
            expect_hits.fetch_add(1);
            // Touch the block while pinned: must stay valid despite the
            // other threads' Puts and evictions.
            ASSERT_EQ(pin->edges.size(), 16u);
          } else {
            expect_misses.fetch_add(1);
          }
        }
      }
    });
  }
  for (auto& th : threads) th.join();
  const SubBlockBuffer::Counters c = buffer.counters();
  EXPECT_EQ(c.hits, expect_hits.load());
  EXPECT_EQ(c.misses, expect_misses.load());
  EXPECT_EQ(c.rejected_puts, expect_rejected_puts.load());
  // Every accepted insert either is still resident or was evicted/replaced;
  // replacements release bytes without counting as evictions, so the
  // accounting identity is: accepted >= residents + evictions.
  EXPECT_GE(expect_accepted_puts.load(),
            buffer.entry_count() + c.evictions);
  EXPECT_EQ(buffer.pinned_count(), 0u);
  EXPECT_LE(buffer.size_bytes(), buffer.capacity_bytes());
  // Byte-accounting audit (satellite 3): after arbitrary interleavings the
  // budget must equal the sum of resident stored footprints exactly — any
  // site that charges stored bytes but credits a different figure drifts.
  EXPECT_EQ(buffer.AuditUsedBytes(), buffer.size_bytes());
}

TEST(SubBlockBufferConcurrency, AuditHoldsUnderMixedSizeDecodedChurn) {
  // Same stress shape but with entries of three sizes, with and without
  // weights, read by weighted and weightless Gets, so a byte-accounting
  // slip between entry sizes or a weights mix-up cannot hide: the audit
  // must still match after the churn.
  SubBlockBuffer buffer(6 * 16 * sizeof(Edge));
  constexpr int kThreads = 4;
  constexpr int kOps = 300;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int op = 0; op < kOps; ++op) {
        const std::uint32_t i = static_cast<std::uint32_t>((op * 5 + t) % 10);
        const std::uint64_t priority = static_cast<std::uint64_t>(op % 40);
        switch (op % 4) {
          case 0:
            buffer.Put(i, 0, MakeBlock(8 + 8 * (op % 3)), priority);
            break;
          case 1:
            buffer.Put(i, 0, MakeWeightedBlock(16), priority);
            break;
          default: {
            const bool weighted = op % 4 == 3;
            SubBlockBuffer::Pin pin = buffer.Get(i, 0, weighted);
            if (pin && weighted) {
              ASSERT_EQ(pin->weights.size(), pin->edges.size());
            }
            break;
          }
        }
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(buffer.pinned_count(), 0u);
  EXPECT_LE(buffer.size_bytes(), buffer.capacity_bytes());
  EXPECT_EQ(buffer.AuditUsedBytes(), buffer.size_bytes());
}

TEST(SubBlockBufferConcurrency, PinsProtectReadersFromConcurrentEviction) {
  // Reader threads hold pins and repeatedly touch the pinned bytes while
  // writer threads churn the (tiny) buffer with hotter inserts. Under the
  // old raw-pointer API this was a use-after-free; with pins the entry
  // must survive until release. Run under TSan via tsan_service_smoke.
  SubBlockBuffer buffer(2 * 32 * sizeof(Edge));
  ASSERT_TRUE(buffer.Put(0, 0, MakeBlock(32), /*priority=*/1));
  std::atomic<bool> stop{false};
  std::vector<std::thread> readers;
  for (int r = 0; r < 2; ++r) {
    readers.emplace_back([&] {
      while (!stop.load(std::memory_order_relaxed)) {
        SubBlockBuffer::Pin pin = buffer.Get(0, 0);
        if (pin) {
          ASSERT_EQ(pin->edges.size(), 32u);
          ASSERT_EQ(pin->edges[31].src, 1u);
        }
      }
    });
  }
  std::thread writer([&] {
    for (std::uint32_t k = 1; k <= 500; ++k) {
      buffer.Put(k % 8 + 1, 0, MakeBlock(32), /*priority=*/k);
    }
    stop.store(true, std::memory_order_relaxed);
  });
  writer.join();
  for (auto& th : readers) th.join();
  EXPECT_EQ(buffer.pinned_count(), 0u);
}

}  // namespace
}  // namespace graphsd::core
