// FCIU's held diagonal (DESIGN.md §1, §8): a two-iteration round keeps each
// diagonal sub-block (j, j) from its first-half apply until column j seals,
// as acquired — a buffer hit keeps its pin, a fetched block its own
// payload — and never copies it. Both paths, push and gather, must match
// the synchronous unbuffered run bit for bit, leave the buffer unpinned
// with an exact byte budget, and reuse the device pool's buffers on a
// repeated run.
#include <cstdint>
#include <memory>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "core/sub_block_buffer.hpp"
#include "engine_test_util.hpp"
#include "obs/metrics.hpp"

namespace graphsd {
namespace {

using testing::ExpectValuesBitIdentical;
using testing::MakeDataset;
using testing::TempDir;
using testing::TestDataset;
using testing::Values;
using testing::ValueOrDie;

class HeldDiagonal : public ::testing::Test {
 protected:
  void SetUp() override {
    RmatOptions o;
    o.scale = 10;
    o.edge_factor = 16;
    o.max_weight = 10.0;
    t_ = MakeDataset(GenerateRmat(o), dir_.Sub("ds"), 4);
  }

  /// A buffer with room for every sub-block, holding only the diagonals
  /// (weights included): each FCIU round's diagonal is a pinned hit, and
  /// every secondary block it fetches is offered in beside them.
  std::unique_ptr<core::SubBlockBuffer> DiagonalBuffer() const {
    const auto& manifest = t_.dataset->manifest();
    auto buffer = std::make_unique<core::SubBlockBuffer>(
        manifest.num_edges * (sizeof(Edge) + sizeof(Weight)));
    for (std::uint32_t j = 0; j < manifest.p; ++j) {
      if (manifest.EdgesIn(j, j) == 0) continue;
      EXPECT_TRUE(buffer->Put(
          j, j, ValueOrDie(t_.dataset->LoadSubBlock(j, j, manifest.weighted)),
          /*priority=*/1));
    }
    return buffer;
  }

  /// Every round streams the full grid, so each run is FCIU rounds.
  static core::EngineOptions FciuOptions(std::size_t depth) {
    core::EngineOptions options;
    options.enable_selective = false;
    options.prefetch_depth = depth;
    return options;
  }

  template <typename Program>
  std::vector<double> RunValues(const core::EngineOptions& options,
                                Program program) const {
    core::GraphSDEngine engine(*t_.dataset, options);
    const core::ExecutionReport report = ValueOrDie(engine.Run(program));
    std::uint32_t fciu_rounds = 0;
    for (const core::RoundStat& round : report.per_round) {
      if (round.model == core::RoundModel::kFciu) ++fciu_rounds;
    }
    EXPECT_GT(fciu_rounds, 0u);
    return Values(program, *engine.state());
  }

  TempDir dir_;
  TestDataset t_;
};

void ExpectQuiescent(const core::SubBlockBuffer& buffer) {
  EXPECT_EQ(buffer.pinned_count(), 0u);
  EXPECT_EQ(buffer.AuditUsedBytes(), buffer.size_bytes());
}

TEST_F(HeldDiagonal, PushAndGatherMatchDepthZeroFetchedOrPinned) {
  core::EngineOptions reference = FciuOptions(0);
  reference.enable_buffering = false;
  const std::vector<double> sssp_want = RunValues(reference, algos::Sssp(0));
  const std::vector<double> pr_want = RunValues(reference, algos::PageRank(9));

  // No diagonal ever enters a private buffer in an FCIU-only run: every
  // held diagonal is a fetched block.
  ExpectValuesBitIdentical(RunValues(FciuOptions(4), algos::Sssp(0)),
                           sssp_want);
  ExpectValuesBitIdentical(RunValues(FciuOptions(4), algos::PageRank(9)),
                           pr_want);

  for (const std::size_t depth : {std::size_t{0}, std::size_t{4}}) {
    SCOPED_TRACE(depth);
    const auto buffer = DiagonalBuffer();
    core::EngineOptions pinned = FciuOptions(depth);
    pinned.shared_buffer = buffer.get();
    ExpectValuesBitIdentical(RunValues(pinned, algos::Sssp(0)), sssp_want);
    ExpectQuiescent(*buffer);
    ExpectValuesBitIdentical(RunValues(pinned, algos::PageRank(9)), pr_want);
    ExpectQuiescent(*buffer);
    EXPECT_GT(buffer->hits(), 0u);
  }
}

TEST_F(HeldDiagonal, RepeatedRunMapsNoNewPoolBuffer) {
  for (const bool pinned : {false, true}) {
    SCOPED_TRACE(pinned ? "pinned diagonals" : "fetched diagonals");
    const auto buffer = DiagonalBuffer();
    obs::MetricsRegistry metrics;
    core::EngineOptions options = FciuOptions(0);
    options.metrics = &metrics;
    if (pinned) options.shared_buffer = buffer.get();
    const auto misses = [&] { return metrics.GetGauge("pool.misses").value(); };
    const std::vector<double> first = RunValues(options, algos::Sssp(0));
    const double after_first = misses();
    // Every buffer the second run leases, the first one returned.
    ExpectValuesBitIdentical(RunValues(options, algos::Sssp(0)), first);
    EXPECT_EQ(misses(), after_first);
    EXPECT_EQ(metrics.GetGauge("pool.dropped").value(), 0.0);
  }
}

// Two FCIU runs, push and gather, share one buffer as `graphsd serve`'s
// shared tier does: each holds pinned diagonals for whole columns while the
// other offers (Puts) its secondary blocks in.
TEST_F(HeldDiagonal, ConcurrentRunsShareABufferOfDiagonals) {
  core::EngineOptions reference = FciuOptions(0);
  reference.enable_buffering = false;
  const std::vector<double> sssp_want = RunValues(reference, algos::Sssp(0));
  const std::vector<double> pr_want = RunValues(reference, algos::PageRank(9));

  for (int rep = 0; rep < 3; ++rep) {
    SCOPED_TRACE(rep);
    const auto buffer = DiagonalBuffer();
    core::EngineOptions shared = FciuOptions(4);
    shared.shared_buffer = buffer.get();
    std::vector<double> sssp_got;
    std::vector<double> pr_got;
    std::thread push([&] { sssp_got = RunValues(shared, algos::Sssp(0)); });
    std::thread gather([&] { pr_got = RunValues(shared, algos::PageRank(9)); });
    push.join();
    gather.join();
    ExpectValuesBitIdentical(sssp_got, sssp_want);
    ExpectValuesBitIdentical(pr_got, pr_want);
    ExpectQuiescent(*buffer);
  }
}

}  // namespace
}  // namespace graphsd
