// Pooled payloads under a multi-reader prefetch pipeline: several streams
// share one two-reader pipeline (as `graphsd serve` runs share a dataset's
// pipeline) while their consumers release payload leases directly and
// through a shared SubBlockBuffer's evictions. Registered as the
// tsan_pooled_prefetch_smoke ctest case, so the TSan build checks the
// stream failure records, the pool and the buffer for races.
#include <gtest/gtest.h>

#include <thread>
#include <vector>

#include "core/sub_block_buffer.hpp"
#include "io/prefetch.hpp"
#include "util/buffer_pool.hpp"
#include "util/cancellation.hpp"

namespace graphsd::core {
namespace {

using Stream = io::PrefetchStream<partition::SubBlock>;

enum class Fate { kComplete, kFail, kCancel };

constexpr std::uint32_t kStreams = 6;
constexpr std::uint32_t kUnits = 24;
constexpr std::uint32_t kTrigger = kUnits / 2;

std::size_t EdgeCount(std::uint32_t s, std::uint32_t u) {
  return 100 + (s * 31 + u * 17) % 900;
}

// One consumer: plans kUnits fetches that each fill a pooled edge array,
// takes them in order, and either drops each payload (its lease returns on
// this thread) or donates it to `buffer` (where a later Put's eviction
// returns it, on whichever consumer evicts).
void Consume(io::PrefetchPipeline& pipeline, BufferPool& pool,
             SubBlockBuffer& buffer, std::uint32_t s) {
  const Fate fate = static_cast<Fate>(s % 3);
  CancellationToken token;
  std::vector<Stream::Unit> plan;
  for (std::uint32_t u = 0; u < kUnits; ++u) {
    Stream::Unit unit;
    unit.fetch = [&pool, &token, fate, s, u](partition::SubBlock& out) {
      if (fate == Fate::kFail && u == kTrigger) return IoError("injected");
      if (fate == Fate::kCancel && u == kTrigger) token.Cancel("test stop");
      out.edges = PooledArray<Edge>(pool, EdgeCount(s, u));
      for (std::size_t k = 0; k < out.edges.size(); ++k) {
        out.edges[k] = Edge{u, static_cast<VertexId>(k)};
      }
      return Status::Ok();
    };
    plan.push_back(std::move(unit));
  }
  Stream stream(&pipeline, std::move(plan), &token);
  std::uint32_t failures = 0;
  bool skipping = false;
  for (std::uint32_t u = 0; u < kUnits; ++u) {
    Stream::Item item = stream.Take();
    ASSERT_TRUE(item.fetched);
    if (!item.status.ok()) {
      EXPECT_NE(fate, Fate::kComplete);
      EXPECT_GE(u, kTrigger);
      EXPECT_EQ(item.status.code(), fate == Fate::kFail
                                        ? StatusCode::kIoError
                                        : StatusCode::kCancelled);
      ++failures;
      skipping = skipping || u > kTrigger;
      continue;
    }
    // A unit after the trigger runs only if a reader started it before
    // the failure; readers start units in plan order, so once one is
    // skipped every later one is too.
    EXPECT_FALSE(skipping) << "unit " << u << " ran after a skipped unit";
    EXPECT_FALSE(fate == Fate::kFail && u == kTrigger);
    ASSERT_EQ(item.payload.edges.size(), EdgeCount(s, u));
    EXPECT_EQ(item.payload.edges.back().src, u);
    if (u % 2 == 0) buffer.Put(s, u, std::move(item.payload), u);
  }
  EXPECT_EQ(failures > 0, fate != Fate::kComplete);
}

TEST(PooledPrefetch, ConcurrentStreamsOnTwoReadersReturnEveryLease) {
  BufferPool pool;
  io::PrefetchPipeline pipeline(/*depth=*/4, /*readers=*/2);
  ASSERT_EQ(pipeline.readers(), 2u);
  // Room for a few blocks only, so donations evict each other.
  SubBlockBuffer buffer(3 * 1000 * sizeof(Edge));
  std::vector<std::thread> consumers;
  for (std::uint32_t s = 0; s < kStreams; ++s) {
    consumers.emplace_back(
        [&pipeline, &pool, &buffer, s] { Consume(pipeline, pool, buffer, s); });
  }
  for (std::thread& consumer : consumers) consumer.join();
  EXPECT_GT(buffer.evictions(), 0u);
  buffer.Clear();
  EXPECT_EQ(pool.free_bytes(), pool.resident_bytes());
}

}  // namespace
}  // namespace graphsd::core
