// BlockSource acquisition paths that executor-level tests cannot pin down
// deterministically: a block evicted between issue and consume, and a
// buffer hit on a compressed dataset.
#include "core/block_source.hpp"

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "graph/generators.hpp"
#include "obs/trace.hpp"
#include "testing_util.hpp"

namespace graphsd::core {
namespace {

using testing::BuildTestGrid;
using testing::TempDir;
using testing::ValueOrDie;

/// A weighted RMAT dataset with a private buffer and a one-deep prefetch
/// pipeline, so a unit's skip probe runs when the stream opens — well
/// before the unit is consumed.
struct Fixture {
  explicit Fixture(const std::string& codec) {
    RmatOptions rmat;
    rmat.scale = 7;
    rmat.edge_factor = 6;
    rmat.max_weight = 5.0;
    device = io::MakeSimulatedDevice(io::IoCostModel::ScaledHdd());
    BuildTestGrid(GenerateRmat(rmat), *device, dir.Sub("ds"), 3, "test",
                  codec);
    dataset = std::make_unique<partition::GridDataset>(
        ValueOrDie(partition::GridDataset::Open(*device, dir.Sub("ds"))));
    ctx.dataset = dataset.get();
    ctx.buffer = &buffer;
    ctx.prefetch = &prefetch;
  }

  /// The first non-empty secondary sub-block (i > j).
  std::pair<std::uint32_t, std::uint32_t> Secondary() const {
    const auto& manifest = dataset->manifest();
    for (std::uint32_t i = 1; i < manifest.p; ++i) {
      for (std::uint32_t j = 0; j < i; ++j) {
        if (manifest.EdgesIn(i, j) != 0) return {i, j};
      }
    }
    ADD_FAILURE() << "no non-empty secondary sub-block";
    return {1, 0};
  }

  std::uint64_t ReadBytes() const {
    return device->stats().Snapshot().TotalReadBytes();
  }

  TempDir dir;
  std::unique_ptr<io::Device> device;
  std::unique_ptr<partition::GridDataset> dataset;
  SubBlockBuffer buffer{1 << 24};
  io::PrefetchPipeline prefetch{1};
  ExecContext ctx;
};

TEST(BlockSource, EvictedBetweenIssueAndConsumeReloadsOnce) {
  Fixture fx("none");
  const auto [i, j] = fx.Secondary();
  ASSERT_TRUE(fx.dataset->manifest().weighted);
  const partition::SubBlock expect =
      ValueOrDie(fx.dataset->LoadSubBlock(i, j, /*load_weights=*/true));
  ASSERT_TRUE(fx.buffer.Put(i, j, expect, /*priority=*/1));

  BlockSource source(fx.ctx, /*need_weights=*/true, /*trace_iteration=*/0);
  const std::uint64_t before = fx.ReadBytes();
  // Resident at issue time: the unit is skipped, nothing is read.
  BlockSource::Stream stream = source.Open({{i, j}});
  EXPECT_EQ(fx.ReadBytes(), before);

  fx.buffer.Erase(i, j);  // evicted before the consumer gets to it
  BlockSource::Block block = ValueOrDie(source.Acquire(stream, i, j));
  EXPECT_FALSE(block.from_buffer());
  EXPECT_EQ(block->edges, expect.edges);
  EXPECT_EQ(block->weights, expect.weights);
  // One synchronous reload, accounted exactly once.
  EXPECT_EQ(fx.ReadBytes() - before,
            fx.dataset->SubBlockDiskBytes(i, j, /*with_weights=*/true));
  EXPECT_EQ(fx.buffer.misses(), 1u);
  EXPECT_EQ(fx.buffer.hits(), 0u);

  // The reloaded block is offered back.
  source.Offer(i, j, std::move(block), /*priority=*/1);
  SubBlockBuffer::Pin cached = fx.buffer.Get(i, j, /*require_weights=*/true);
  ASSERT_TRUE(cached);
  EXPECT_EQ(cached->edges, expect.edges);
}

TEST(BlockSource, CompressedHitIsPinnedAndNeverOfferedBack) {
  Fixture fx("varint-delta");
  ASSERT_TRUE(fx.dataset->compressed());
  const auto [i, j] = fx.Secondary();
  const partition::SubBlock expect =
      ValueOrDie(fx.dataset->LoadSubBlock(i, j, /*load_weights=*/false));
  ASSERT_TRUE(fx.buffer.Put(i, j, expect, /*priority=*/1));
  const std::uint64_t stored = fx.buffer.size_bytes();

  BlockSource source(fx.ctx, /*need_weights=*/false, /*trace_iteration=*/0);
  // Both acquisition entry points: an FCIU/semi stream, and a SCIU pass
  // whose frame read was elided because the block was resident at issue.
  for (const bool from_stream : {true, false}) {
    SCOPED_TRACE(from_stream ? "stream" : "sciu pass");
    const SubBlockBuffer::Counters counters = fx.buffer.counters();
    const std::uint64_t frames = fx.dataset->decode_stats().frames_decoded;
    const std::uint64_t before = fx.ReadBytes();
    BlockSource::Stream stream = source.Open({{i, j}});
    BlockSource::Block block =
        from_stream
            ? ValueOrDie(source.Acquire(stream, i, j))
            : ValueOrDie(source.Acquire(i, j, partition::SubBlockPayload{}));
    // The hit serves the decoded entry in place: nothing is read or decoded.
    EXPECT_TRUE(block.from_buffer());
    EXPECT_EQ(block->edges, expect.edges);
    EXPECT_EQ(fx.dataset->decode_stats().frames_decoded, frames);
    EXPECT_EQ(fx.ReadBytes(), before);
    EXPECT_EQ(fx.buffer.pinned_count(), 1u);

    source.Offer(i, j, std::move(block), /*priority=*/1000);
    const SubBlockBuffer::Counters after = fx.buffer.counters();
    EXPECT_EQ(after.hits, counters.hits + 1);
    EXPECT_EQ(after.misses, counters.misses);
    EXPECT_EQ(after.rejected_puts, counters.rejected_puts);
    EXPECT_EQ(fx.buffer.pinned_count(), 0u);
    EXPECT_EQ(fx.buffer.size_bytes(), stored);
    EXPECT_EQ(fx.buffer.entry_count(), 1u);
  }
}

TEST(BlockSource, AcquireTracesTheWaitOnTheLoader) {
  // The consumer's wait in Acquire is its own span, tagged with the
  // source's iteration and recorded on the consumer's thread; the fetch it
  // waited for is traced on the loader's.
  Fixture fx("none");
  obs::TraceBuffer trace;
  fx.ctx.trace = &trace;
  const auto [i, j] = fx.Secondary();
  BlockSource source(fx.ctx, /*need_weights=*/false, /*trace_iteration=*/7);
  BlockSource::Stream stream = source.Open({{i, j}});
  ValueOrDie(source.Acquire(stream, i, j));
  std::vector<obs::TraceEvent> waits;
  std::vector<obs::TraceEvent> reads;
  for (const obs::TraceEvent& event : trace.Events()) {
    if (std::string(event.name) == "prefetch-wait") waits.push_back(event);
    if (std::string(event.name) == "edge-read") reads.push_back(event);
  }
  ASSERT_EQ(waits.size(), 1u);
  ASSERT_EQ(reads.size(), 1u);
  EXPECT_EQ(waits[0].iteration, 7u);
  EXPECT_NE(waits[0].tid, reads[0].tid);
}

}  // namespace
}  // namespace graphsd::core
