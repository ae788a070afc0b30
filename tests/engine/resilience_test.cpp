// End-to-end resilience acceptance tests (DESIGN.md §7): under seeded
// transient storage faults every engine path must produce bit-identical
// results to the fault-free run; corruption must surface as kCorruptData or
// a logged degradation — never a silent wrong answer.
#include <gtest/gtest.h>

#include <functional>
#include <memory>
#include <string>

#include "engine_test_util.hpp"
#include "io/fault_injector.hpp"
#include "partition/manifest.hpp"

namespace graphsd {
namespace {

using testing::MakeDataset;
using testing::TempDir;
using testing::TestDataset;
using testing::ValueOrDie;

class ResilienceTest : public ::testing::Test {
 protected:
  void SetUp() override {
    RmatOptions o;
    o.scale = 7;
    o.edge_factor = 6;
    o.max_weight = 5.0;
    t_ = MakeDataset(GenerateRmat(o), dir_.Sub("ds"), 3);
    ds_dir_ = dir_.Sub("ds");
  }

  void TearDown() override { t_.device->set_fault_injector(nullptr); }

  /// Engine options for deterministic replay. `on_demand` picks the SCIU
  /// (true) or FCIU (false) I/O model. Prefetch depth 4: on real:ssd the
  /// pipeline's two readers both have reads in flight.
  static core::EngineOptions Opts(bool on_demand) {
    core::EngineOptions options;
    options.prefetch_depth = 4;
    if (on_demand) {
      options.force_on_demand = true;
    } else {
      options.enable_selective = false;
    }
    return options;
  }

  std::vector<double> RunPageRank(const partition::GridDataset& dataset,
                                  const core::EngineOptions& options) {
    core::GraphSDEngine engine(dataset, options);
    algos::PageRank pr(10);
    EXPECT_OK(engine.Run(pr).status());
    return testing::Values(pr, *engine.state());
  }

  std::vector<double> RunBfs(const partition::GridDataset& dataset,
                             const core::EngineOptions& options) {
    core::GraphSDEngine engine(dataset, options);
    algos::Bfs bfs(0);
    EXPECT_OK(engine.Run(bfs).status());
    return testing::Values(bfs, *engine.state());
  }

  /// The dataset as `kind` reads it: the fixture's simulated device, or a
  /// fresh real:ssd device whose read path adds O_DIRECT reads straight into
  /// pooled payloads, bounced ranged reads, vectored preadv batches and two
  /// prefetch readers.
  struct Backend {
    std::unique_ptr<io::Device> owned_device;
    std::unique_ptr<partition::GridDataset> owned_dataset;
    io::Device* device = nullptr;
    const partition::GridDataset* dataset = nullptr;
  };

  Backend Open(const std::string& kind) {
    Backend backend;
    backend.device = t_.device.get();
    backend.dataset = t_.dataset.get();
    if (kind == "real:ssd") {
      backend.owned_device = ValueOrDie(io::MakeDeviceForKind(kind));
      EXPECT_EQ(backend.owned_device->reads_in_flight(), 2u);
      backend.owned_dataset = std::make_unique<partition::GridDataset>(
          ValueOrDie(partition::GridDataset::Open(*backend.owned_device,
                                                  ds_dir_)));
      backend.device = backend.owned_device.get();
      backend.dataset = backend.owned_dataset.get();
    }
    return backend;
  }

  /// Calls `run` on every device kind at prefetch depths 0 and 4 and
  /// expects the checksum failures counted; on real:ssd the corrupt bytes
  /// arrive through direct reads into pooled payloads, never a bounce (an
  /// on-demand run fails verification before any ranged read, and its
  /// full-streaming replay reads whole files).
  void ExpectCorruptDataOnEveryDevice(bool on_demand,
                                      const std::function<void(
                                          const partition::GridDataset&,
                                          const core::EngineOptions&)>& run) {
    for (const std::string kind : {"sim:scaled-hdd", "real:ssd"}) {
      const Backend backend = Open(kind);
      for (const std::size_t depth : {std::size_t{0}, std::size_t{4}}) {
        SCOPED_TRACE(kind + " prefetch depth " + std::to_string(depth));
        core::EngineOptions options = Opts(on_demand);
        options.prefetch_depth = depth;
        const io::IoStatsSnapshot before = backend.device->stats().Snapshot();
        run(*backend.dataset, options);
        const io::IoStatsSnapshot delta =
            backend.device->stats().Snapshot() - before;
        EXPECT_GT(delta.checksum_failures, 0u);
        if (kind == "real:ssd") {
          EXPECT_EQ(delta.bounce_reads, 0u);
        }
      }
    }
  }

  void CorruptAllNonEmptyEdgeFiles() {
    const auto& manifest = t_.dataset->manifest();
    bool corrupted_any = false;
    for (std::uint32_t i = 0; i < manifest.p; ++i) {
      for (std::uint32_t j = 0; j < manifest.p; ++j) {
        if (manifest.EdgesIn(i, j) == 0) continue;
        FlipByte(partition::SubBlockEdgesPath(ds_dir_, i, j));
        corrupted_any = true;
      }
    }
    ASSERT_TRUE(corrupted_any);
  }

  void FlipByte(const std::string& path) {
    std::string data = ValueOrDie(io::ReadFileToString(path));
    ASSERT_FALSE(data.empty());
    data[0] = static_cast<char>(data[0] ^ 0x01);
    ASSERT_OK(io::WriteStringToFile(path, data));
  }

  TempDir dir_;
  TestDataset t_;
  std::string ds_dir_;
};

// The headline acceptance criterion: a fixed-seed >=1% transient read-fault
// rate must not change a single output bit on either I/O model, and the
// retry counters must show the faults were actually hit and absorbed. Runs
// on the simulated device and on real:ssd, whose read path adds O_DIRECT,
// bounced ranged reads, vectored preadv batches and two prefetch readers.
TEST_F(ResilienceTest, TransientReadFaultsLeaveResultsBitIdentical) {
  for (const std::string kind : {"sim:scaled-hdd", "real:ssd"}) {
    const Backend backend = Open(kind);
    io::Device* device = backend.device;
    const partition::GridDataset* dataset = backend.dataset;
    for (const bool on_demand : {true, false}) {
      SCOPED_TRACE(kind + (on_demand ? " SCIU (on-demand)"
                                     : " FCIU (full streaming)"));
      const core::EngineOptions options = Opts(on_demand);

      const std::vector<double> want_pr = RunPageRank(*dataset, options);
      const std::vector<double> want_bfs = RunBfs(*dataset, options);

      io::FaultInjector injector(20260805);
      io::FaultRule eio;
      eio.kind = io::FaultKind::kEio;
      eio.op = io::FaultOp::kRead;
      eio.probability = 0.01;
      injector.AddRule(eio);
      io::FaultRule short_read;
      short_read.kind = io::FaultKind::kShortRead;
      short_read.op = io::FaultOp::kRead;
      short_read.probability = 0.005;
      injector.AddRule(short_read);
      io::FaultRule eintr;
      eintr.kind = io::FaultKind::kEintr;
      eintr.op = io::FaultOp::kRead;
      eintr.probability = 0.005;
      injector.AddRule(eintr);
      device->set_fault_injector(&injector);

      const io::IoStatsSnapshot before = device->stats().Snapshot();
      const std::vector<double> got_pr = RunPageRank(*dataset, options);
      const std::vector<double> got_bfs = RunBfs(*dataset, options);
      const io::IoStatsSnapshot delta = device->stats().Snapshot() - before;
      device->set_fault_injector(nullptr);

      EXPECT_EQ(got_pr, want_pr);
      EXPECT_EQ(got_bfs, want_bfs);
      EXPECT_GT(injector.faults_injected(), 0u);
      EXPECT_GT(delta.retries, 0u);
      if (kind == "real:ssd") {
        // The faulted reads really went through the direct-I/O path: ranged
        // on-demand reads into vectors bounce and batch; full streaming
        // reads whole files straight into pooled payloads.
        if (on_demand) {
          EXPECT_GT(delta.bounce_reads, 0u);
          EXPECT_GT(delta.vectored_reads, 0u);
        } else {
          EXPECT_EQ(delta.bounce_reads, 0u);
        }
      }
    }
  }
}

// A flipped payload byte must fail the run with kCorruptData on the full
// streaming path, synchronous or prefetched, including when real:ssd's
// direct read is what hands the corrupt bytes to the checksum...
TEST_F(ResilienceTest, CorruptEdgePayloadFailsFullStreamingRun) {
  CorruptAllNonEmptyEdgeFiles();
  ExpectCorruptDataOnEveryDevice(
      /*on_demand=*/false, [](const partition::GridDataset& dataset,
                              const core::EngineOptions& options) {
        core::GraphSDEngine engine(dataset, options);
        algos::PageRank pr(10);
        const auto result = engine.Run(pr);
        ASSERT_FALSE(result.ok());
        EXPECT_EQ(result.status().code(), StatusCode::kCorruptData);
      });
}

// ...and on the on-demand path, where the one-time sub-block verification
// catches it, degradation to full streaming is attempted, and the replay
// hits the same corruption — the error still surfaces, never a wrong answer.
TEST_F(ResilienceTest, CorruptEdgePayloadFailsOnDemandRun) {
  CorruptAllNonEmptyEdgeFiles();
  ExpectCorruptDataOnEveryDevice(
      /*on_demand=*/true, [](const partition::GridDataset& dataset,
                             const core::EngineOptions& options) {
        core::GraphSDEngine engine(dataset, options);
        algos::Bfs bfs(0);
        const auto result = engine.Run(bfs);
        ASSERT_FALSE(result.ok());
        EXPECT_EQ(result.status().code(), StatusCode::kCorruptData);
      });
}

// Corrupt *index* files only hurt the on-demand model; the engine must
// degrade to full streaming and still produce the exact baseline answer.
TEST_F(ResilienceTest, CorruptIndexDegradesToFullStreaming) {
  const core::EngineOptions options = Opts(/*on_demand=*/true);
  std::vector<double> want;
  {
    core::GraphSDEngine engine(*t_.dataset, options);
    algos::Sssp sssp(0);
    ASSERT_OK(engine.Run(sssp).status());
    want = testing::Values(sssp, *engine.state());
  }

  const auto& manifest = t_.dataset->manifest();
  for (std::uint32_t i = 0; i < manifest.p; ++i) {
    for (std::uint32_t j = 0; j < manifest.p; ++j) {
      FlipByte(partition::SubBlockIndexPath(ds_dir_, i, j));
    }
  }
  core::GraphSDEngine engine(*t_.dataset, options);
  algos::Sssp sssp(0);
  const auto result = engine.Run(sssp);
  ASSERT_OK(result.status());
  EXPECT_GE(ValueOrDie(result).degraded_rounds, 1u);
  EXPECT_GT(t_.device->stats().Snapshot().checksum_failures, 0u);
  testing::ExpectValuesNear(testing::Values(sssp, *engine.state()), want,
                            1e-12);
}

// Space exhaustion is not transient: the first injected ENOSPC must abort
// the run cleanly with kResourceExhausted and no retry churn.
TEST_F(ResilienceTest, EnospcOnWriteFailsCleanly) {
  io::FaultInjector injector(11);
  io::FaultRule rule;
  rule.kind = io::FaultKind::kEnospc;
  rule.op = io::FaultOp::kWrite;
  rule.nth = 1;
  injector.AddRule(rule);
  t_.device->set_fault_injector(&injector);

  const std::uint64_t retries_before = t_.device->stats().Snapshot().retries;
  core::GraphSDEngine engine(*t_.dataset, Opts(/*on_demand=*/false));
  algos::Bfs bfs(0);
  const auto result = engine.Run(bfs);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kResourceExhausted);
  EXPECT_EQ(t_.device->stats().Snapshot().retries, retries_before);
}

}  // namespace
}  // namespace graphsd
