// Run-lifecycle acceptance tests (DESIGN.md §12): cooperative cancellation
// always lands on a committed iteration boundary, checkpoints resume
// bit-identically, damaged slots fall back or surface kCorruptData, and
// mismatched resume preconditions are refused — never silently executed.
#include <bit>
#include <chrono>
#include <span>
#include <thread>

#include <gtest/gtest.h>

#include "core/checkpoint.hpp"
#include "engine_test_util.hpp"
#include "io/file.hpp"
#include "obs/metrics.hpp"
#include "util/cancellation.hpp"

namespace graphsd {
namespace {

using testing::MakeDataset;
using testing::TempDir;
using testing::TestDataset;
using testing::ValueOrDie;
using testing::Values;

class EngineLifecycleTest : public ::testing::Test {
 protected:
  void SetUp() override {
    RmatOptions o;
    o.scale = 7;
    o.edge_factor = 6;
    o.max_weight = 5.0;
    t_ = MakeDataset(GenerateRmat(o), dir_.Sub("ds"), 3);
  }

  /// Default options: the scheduler reads no timing, so killed + resumed
  /// replays the uninterrupted run bit-for-bit.
  core::EngineOptions Opts() const { return {}; }

  std::string CheckpointDir() const { return dir_.Sub("ck"); }

  static void ExpectBitwiseEqual(const std::vector<double>& got,
                                 const std::vector<double>& want) {
    ASSERT_EQ(got.size(), want.size());
    for (std::size_t v = 0; v < got.size(); ++v) {
      EXPECT_EQ(std::bit_cast<std::uint64_t>(got[v]),
                std::bit_cast<std::uint64_t>(want[v]))
          << "vertex " << v;
    }
  }

  TempDir dir_;
  TestDataset t_;
};

TEST_F(EngineLifecycleTest, KillAtBoundaryThenResumeIsBitIdentical) {
  // Uninterrupted baseline.
  core::GraphSDEngine baseline(*t_.dataset, Opts());
  algos::Bfs bfs_base(0);
  const auto base_report = ValueOrDie(baseline.Run(bfs_base));
  const std::vector<double> expect = Values(bfs_base, *baseline.state());
  ASSERT_GT(base_report.iterations, 3u);

  // Killed run: the frontier probe trips the token entering iteration 2;
  // prefetch depth 4 keeps in-flight I/O live across the cancellation so
  // the drain path is exercised too.
  CancellationToken token;
  core::EngineOptions killed_options = Opts();
  killed_options.prefetch_depth = 4;
  killed_options.checkpoint_dir = CheckpointDir();
  killed_options.cancel = &token;
  killed_options.frontier_probe = [&token](std::uint32_t next_iteration,
                                           const core::Frontier&) {
    if (next_iteration >= 2) token.Cancel("test kill");
  };
  core::GraphSDEngine killed(*t_.dataset, killed_options);
  algos::Bfs bfs_killed(0);
  const auto killed_report = ValueOrDie(killed.Run(bfs_killed));
  EXPECT_TRUE(killed_report.cancelled);
  EXPECT_EQ(killed_report.cancel_reason, "test kill");
  EXPECT_EQ(killed_report.iterations, 2u);
  EXPECT_GT(killed_report.checkpoints_written, 0u);

  // Resume to completion.
  core::EngineOptions resume_options = Opts();
  resume_options.prefetch_depth = 4;
  resume_options.checkpoint_dir = CheckpointDir();
  resume_options.resume = true;
  core::GraphSDEngine resumed(*t_.dataset, resume_options);
  algos::Bfs bfs_resumed(0);
  const auto resume_report = ValueOrDie(resumed.Run(bfs_resumed));
  EXPECT_FALSE(resume_report.cancelled);
  EXPECT_TRUE(resume_report.resumed);
  EXPECT_EQ(resume_report.resume_iteration, 2u);
  EXPECT_EQ(resume_report.iterations, base_report.iterations);
  ExpectBitwiseEqual(Values(bfs_resumed, *resumed.state()), expect);
}

TEST_F(EngineLifecycleTest, PreCancelledTokenStopsBeforeAnyRound) {
  CancellationToken token;
  token.Cancel("already stopped");
  core::EngineOptions options = Opts();
  options.cancel = &token;
  options.checkpoint_dir = CheckpointDir();
  core::GraphSDEngine engine(*t_.dataset, options);
  algos::Bfs bfs(0);
  const auto report = ValueOrDie(engine.Run(bfs));
  EXPECT_TRUE(report.cancelled);
  EXPECT_EQ(report.cancel_reason, "already stopped");
  EXPECT_EQ(report.iterations, 0u);
  EXPECT_EQ(report.checkpoints_written, 0u);
}

TEST_F(EngineLifecycleTest, GatherDeadlineKillThenResumeCompletesBudget) {
  core::GraphSDEngine baseline(*t_.dataset, Opts());
  algos::PageRank pr_base(10);
  const auto base_report = ValueOrDie(baseline.Run(pr_base));
  ASSERT_EQ(base_report.iterations, 10u);
  const std::vector<double> expect = Values(pr_base, *baseline.state());

  // The deadline may fire at any boundary (or never, on a fast machine) —
  // either way the resumed run must finish the budget bit-identically.
  core::EngineOptions killed_options = Opts();
  killed_options.checkpoint_dir = CheckpointDir();
  killed_options.deadline_seconds = 1e-4;
  core::GraphSDEngine killed(*t_.dataset, killed_options);
  algos::PageRank pr_killed(10);
  const auto killed_report = ValueOrDie(killed.Run(pr_killed));
  if (killed_report.cancelled) {
    EXPECT_EQ(killed_report.cancel_reason, "deadline exceeded");
    EXPECT_LT(killed_report.iterations, 10u);
  }

  core::EngineOptions resume_options = Opts();
  resume_options.checkpoint_dir = CheckpointDir();
  resume_options.resume = true;
  core::GraphSDEngine resumed(*t_.dataset, resume_options);
  algos::PageRank pr_resumed(10);
  const auto resume_report = ValueOrDie(resumed.Run(pr_resumed));
  EXPECT_FALSE(resume_report.cancelled);
  EXPECT_EQ(resume_report.iterations, 10u);
  ExpectBitwiseEqual(Values(pr_resumed, *resumed.state()), expect);
}

TEST_F(EngineLifecycleTest, ResumeFallsBackWhenNewestSlotIsDamaged) {
  core::GraphSDEngine baseline(*t_.dataset, Opts());
  algos::Sssp sssp_base(0);
  const auto base_report = ValueOrDie(baseline.Run(sssp_base));
  ASSERT_GT(base_report.iterations, 3u);
  const std::vector<double> expect = Values(sssp_base, *baseline.state());

  CancellationToken token;
  core::EngineOptions killed_options = Opts();
  killed_options.checkpoint_dir = CheckpointDir();
  killed_options.cancel = &token;
  // The async writer keeps only the newest queued frame, so under load every
  // earlier boundary could be superseded and only one slot would exist.
  // Before killing, wait (bounded) until an earlier boundary is on disk: the
  // final checkpoint then lands in the other slot.
  core::CheckpointStore probe_store(CheckpointDir());
  killed_options.frontier_probe = [&token, &probe_store](
                                      std::uint32_t next_iteration,
                                      const core::Frontier&) {
    if (next_iteration < 3) return;
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(10);
    while (!probe_store.LoadLatest().ok() &&
           std::chrono::steady_clock::now() < deadline) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    token.Cancel("test kill");
  };
  core::GraphSDEngine killed(*t_.dataset, killed_options);
  algos::Sssp sssp_killed(0);
  const auto killed_report = ValueOrDie(killed.Run(sssp_killed));
  ASSERT_TRUE(killed_report.cancelled);
  // Rounds can cover 1 or 2 iterations, so the kill lands at the first
  // committed boundary at or past 3.
  ASSERT_GE(killed_report.iterations, 3u);

  // Both slots hold the last two committed boundaries. Truncate the newest
  // (the one matching the kill iteration): resume must fall back to the
  // older boundary and still land on identical final values.
  core::CheckpointStore store(CheckpointDir());
  for (int slot = 0; slot < 2; ++slot) {
    std::string data = ValueOrDie(io::ReadFileToString(store.SlotPath(slot)));
    auto cp = core::DecodeCheckpoint(std::span<const std::uint8_t>(
        reinterpret_cast<const std::uint8_t*>(data.data()), data.size()));
    ASSERT_TRUE(cp.ok()) << cp.status().ToString();
    if (cp->iteration == killed_report.iterations) {
      ASSERT_OK(io::WriteStringToFile(store.SlotPath(slot),
                                      data.substr(0, data.size() / 2)));
    }
  }

  core::EngineOptions resume_options = Opts();
  resume_options.checkpoint_dir = CheckpointDir();
  resume_options.resume = true;
  core::GraphSDEngine resumed(*t_.dataset, resume_options);
  algos::Sssp sssp_resumed(0);
  const auto resume_report = ValueOrDie(resumed.Run(sssp_resumed));
  EXPECT_TRUE(resume_report.resumed);
  EXPECT_LT(resume_report.resume_iteration, killed_report.iterations);
  EXPECT_EQ(resume_report.iterations, base_report.iterations);
  ExpectBitwiseEqual(Values(sssp_resumed, *resumed.state()), expect);
}

TEST_F(EngineLifecycleTest, ResumeWithAllSlotsCorruptFails) {
  CancellationToken token;
  core::EngineOptions killed_options = Opts();
  killed_options.checkpoint_dir = CheckpointDir();
  killed_options.cancel = &token;
  killed_options.frontier_probe = [&token](std::uint32_t next_iteration,
                                           const core::Frontier&) {
    if (next_iteration >= 3) token.Cancel("test kill");
  };
  core::GraphSDEngine killed(*t_.dataset, killed_options);
  algos::Bfs bfs(0);
  ASSERT_TRUE(ValueOrDie(killed.Run(bfs)).cancelled);

  core::CheckpointStore store(CheckpointDir());
  for (int slot = 0; slot < 2; ++slot) {
    ASSERT_OK(io::WriteStringToFile(store.SlotPath(slot), "garbage"));
  }

  core::EngineOptions resume_options = Opts();
  resume_options.checkpoint_dir = CheckpointDir();
  resume_options.resume = true;
  core::GraphSDEngine resumed(*t_.dataset, resume_options);
  algos::Bfs bfs2(0);
  EXPECT_EQ(resumed.Run(bfs2).status().code(), StatusCode::kCorruptData);
}

TEST_F(EngineLifecycleTest, ResumeRefusesDifferentAlgorithm) {
  CancellationToken token;
  core::EngineOptions killed_options = Opts();
  killed_options.checkpoint_dir = CheckpointDir();
  killed_options.cancel = &token;
  killed_options.frontier_probe = [&token](std::uint32_t next_iteration,
                                           const core::Frontier&) {
    if (next_iteration >= 1) token.Cancel("test kill");
  };
  core::GraphSDEngine killed(*t_.dataset, killed_options);
  algos::Bfs bfs(0);
  ASSERT_TRUE(ValueOrDie(killed.Run(bfs)).cancelled);

  core::EngineOptions resume_options = Opts();
  resume_options.checkpoint_dir = CheckpointDir();
  resume_options.resume = true;
  core::GraphSDEngine resumed(*t_.dataset, resume_options);
  algos::ConnectedComponents cc;
  EXPECT_EQ(resumed.Run(cc).status().code(), StatusCode::kFailedPrecondition);
}

TEST_F(EngineLifecycleTest, ResumeRefusesDifferentDataset) {
  CancellationToken token;
  core::EngineOptions killed_options = Opts();
  killed_options.checkpoint_dir = CheckpointDir();
  killed_options.cancel = &token;
  killed_options.frontier_probe = [&token](std::uint32_t next_iteration,
                                           const core::Frontier&) {
    if (next_iteration >= 1) token.Cancel("test kill");
  };
  core::GraphSDEngine killed(*t_.dataset, killed_options);
  algos::Bfs bfs(0);
  ASSERT_TRUE(ValueOrDie(killed.Run(bfs)).cancelled);

  // Same graph rebuilt with a different interval count: a different build,
  // a different fingerprint, a refused resume.
  TestDataset other = MakeDataset(t_.graph, dir_.Sub("ds2"), 2);
  core::EngineOptions resume_options = Opts();
  resume_options.checkpoint_dir = CheckpointDir();
  resume_options.resume = true;
  core::GraphSDEngine resumed(*other.dataset, resume_options);
  algos::Bfs bfs2(0);
  EXPECT_EQ(resumed.Run(bfs2).status().code(), StatusCode::kFailedPrecondition);
}

TEST_F(EngineLifecycleTest, ResumeAfterNaturalCompletionIsANoOp) {
  core::EngineOptions options = Opts();
  options.checkpoint_dir = CheckpointDir();
  core::GraphSDEngine first(*t_.dataset, options);
  algos::Bfs bfs(0);
  const auto first_report = ValueOrDie(first.Run(bfs));
  EXPECT_FALSE(first_report.cancelled);
  const std::vector<double> expect = Values(bfs, *first.state());

  core::EngineOptions resume_options = Opts();
  resume_options.checkpoint_dir = CheckpointDir();
  resume_options.resume = true;
  core::GraphSDEngine resumed(*t_.dataset, resume_options);
  algos::Bfs bfs2(0);
  const auto resume_report = ValueOrDie(resumed.Run(bfs2));
  EXPECT_TRUE(resume_report.resumed);
  EXPECT_FALSE(resume_report.cancelled);
  EXPECT_EQ(resume_report.iterations, first_report.iterations);
  ExpectBitwiseEqual(Values(bfs2, *resumed.state()), expect);
}

TEST_F(EngineLifecycleTest, CheckpointMetricsCountSupersededFrames) {
  // Every submitted frame either reaches disk or is dropped because a newer
  // one superseded it; the final one always lands (Finish flushes).
  obs::MetricsRegistry metrics;
  core::EngineOptions options = Opts();
  options.checkpoint_dir = CheckpointDir();
  options.checkpoint_every = 1;
  options.metrics = &metrics;
  core::GraphSDEngine engine(*t_.dataset, options);
  algos::Bfs bfs(0);
  const auto report = ValueOrDie(engine.Run(bfs));
  ASSERT_GT(report.checkpoints_written, 1u);
  EXPECT_LT(report.checkpoints_dropped, report.checkpoints_written);
  EXPECT_EQ(metrics.GetCounter("checkpoint.written").value(),
            report.checkpoints_written);
  EXPECT_EQ(metrics.GetCounter("checkpoint.dropped").value(),
            report.checkpoints_dropped);
  EXPECT_NE(report.Summary().find("superseded before reaching disk"),
            std::string::npos);
}

// Concurrency surface for the TSan build (tsan_buffer_cancel_smoke):
// SubBlockBuffer Get/Put/eviction on the compute threads racing the loader
// thread's cancellation drain. The killer thread trips the token at a
// different point each repetition; any outcome is valid as long as the run
// lands cleanly on a committed boundary with no data race.
TEST_F(EngineLifecycleTest, ConcurrentCancellationDuringBufferedPrefetch) {
  for (int rep = 0; rep < 10; ++rep) {
    CancellationToken token;
    core::EngineOptions options;
    options.prefetch_depth = 4;
    options.enable_selective = false;  // FCIU rounds keep the buffer hot
    options.cancel = &token;
    // Checkpointing makes the race three-way: the loader, the async
    // checkpoint writer and the killer all overlap the cancellation drain.
    options.checkpoint_dir = CheckpointDir() + std::to_string(rep);
    core::GraphSDEngine engine(*t_.dataset, options);
    algos::PageRank pr(50);
    std::thread killer([&token, rep] {
      std::this_thread::sleep_for(std::chrono::microseconds(50 * rep * rep));
      token.Cancel("concurrent kill");
    });
    const auto report = ValueOrDie(engine.Run(pr));
    killer.join();
    EXPECT_LE(report.iterations, 50u);
    if (!report.cancelled) {
      EXPECT_EQ(report.iterations, 50u);
    }
  }
}

TEST_F(EngineLifecycleTest, ResumeOnEmptyDirectoryStartsFresh) {
  core::EngineOptions options = Opts();
  options.checkpoint_dir = CheckpointDir();
  options.resume = true;  // nothing on disk yet
  core::GraphSDEngine engine(*t_.dataset, options);
  algos::Bfs bfs(0);
  const auto report = ValueOrDie(engine.Run(bfs));
  EXPECT_FALSE(report.resumed);
  EXPECT_FALSE(report.cancelled);
  EXPECT_GT(report.iterations, 0u);
}

}  // namespace
}  // namespace graphsd
