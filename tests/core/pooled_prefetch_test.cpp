// Pooled payloads under a multi-reader prefetch pipeline: several streams
// share one two-reader pipeline (as `graphsd serve` runs share a dataset's
// pipeline) while their consumers release payload leases directly and
// through a shared SubBlockBuffer's evictions. Registered as the
// tsan_pooled_prefetch_smoke ctest case, so the TSan build checks the
// stream failure records, the pool and the buffer for races.
#include <gtest/gtest.h>

#include <algorithm>
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

constexpr std::size_t kDepth = 4;
constexpr std::uint32_t kStreams = 6;
constexpr std::uint32_t kUnits = 24;
constexpr std::uint32_t kTrigger = kUnits / 2;

std::size_t EdgeCount(std::uint32_t s, std::uint32_t u) {
  return 100 + (s * 31 + u * 17) % 900;
}

// One consumer: plans kUnits fetches that each fill a pooled edge array,
// takes them in order, and either drops each payload (its lease returns on
// this thread) or donates it to `buffer` (where a later Put's eviction
// returns it, on whichever consumer evicts). A kFail stream's unit kTrigger
// fails inside its fetch; a kCancel stream's consumer trips the token right
// after it takes unit kTrigger.
void Consume(io::PrefetchPipeline& pipeline, BufferPool& pool,
             SubBlockBuffer& buffer, std::uint32_t s) {
  const Fate fate = static_cast<Fate>(s % 3);
  CancellationToken token;
  std::vector<Stream::Unit> plan;
  for (std::uint32_t u = 0; u < kUnits; ++u) {
    Stream::Unit unit;
    unit.fetch = [&pool, fate, s, u](partition::SubBlock& out) {
      if (fate == Fate::kFail && u == kTrigger) return IoError("injected");
      out.edges = PooledArray<Edge>(pool, EdgeCount(s, u));
      for (std::size_t k = 0; k < out.edges.size(); ++k) {
        out.edges[k] = Edge{u, static_cast<VertexId>(k)};
      }
      return Status::Ok();
    };
    plan.push_back(std::move(unit));
  }
  Stream stream(&pipeline, std::move(plan), &token);
  // The first unit of the stream's failed suffix; kUnits while none failed.
  std::uint32_t first_failure = kUnits;
  for (std::uint32_t u = 0; u < kUnits; ++u) {
    Stream::Item item = stream.Take();
    ASSERT_TRUE(item.fetched);
    if (fate == Fate::kCancel && u == kTrigger) token.Cancel("test stop");
    if (!item.status.ok()) {
      EXPECT_EQ(item.status.code(), fate == Fate::kFail
                                        ? StatusCode::kIoError
                                        : StatusCode::kCancelled);
      first_failure = std::min(first_failure, u);
      continue;
    }
    // The failed units form one suffix of the plan: no unit succeeds
    // after one has failed.
    EXPECT_EQ(first_failure, kUnits) << "unit " << u << " ran after unit "
                                     << first_failure << " failed";
    ASSERT_EQ(item.payload.edges.size(), EdgeCount(s, u));
    EXPECT_EQ(item.payload.edges.back().src, u);
    if (u % 2 == 0) buffer.Put(s, u, std::move(item.payload), u);
  }
  switch (fate) {
    case Fate::kComplete:
      EXPECT_EQ(first_failure, kUnits);
      break;
    case Fate::kFail:
      EXPECT_EQ(first_failure, kTrigger);
      break;
    case Fate::kCancel:
      // Every unit up to the trigger was taken before the trip, so the
      // suffix starts strictly after it, and no later than the first unit
      // the stream issued after the trip: its kDepth-unit window was full.
      EXPECT_GT(first_failure, kTrigger);
      EXPECT_LE(first_failure, kTrigger + kDepth + 1);
      break;
  }
}

TEST(PooledPrefetch, ConcurrentStreamsOnTwoReadersReturnEveryLease) {
  BufferPool pool;
  io::PrefetchPipeline pipeline(kDepth, /*readers=*/2);
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
