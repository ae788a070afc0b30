// I/O accounting invariants of the engine and its reports.
#include <optional>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "engine_test_util.hpp"
#include "obs/metrics.hpp"

namespace graphsd {
namespace {

using testing::MakeDataset;
using testing::TempDir;
using testing::TestDataset;
using testing::ValueOrDie;

class EngineIoTest : public ::testing::Test {
 protected:
  void SetUp() override {
    RmatOptions o;
    o.scale = 9;
    o.edge_factor = 8;
    o.max_weight = 10.0;
    t_ = MakeDataset(GenerateRmat(o), dir_.Sub("ds"), 4);
  }
  TempDir dir_;
  TestDataset t_;
};

TEST_F(EngineIoTest, ReportTotalsEqualPerRoundSums) {
  core::GraphSDEngine engine(*t_.dataset, {});
  algos::Sssp sssp(0);
  const auto report = ValueOrDie(engine.Run(sssp));
  double io = 0;
  double compute = 0;
  double scheduler = 0;
  std::uint32_t iterations = 0;
  std::uint64_t read_bytes = 0;
  for (const auto& round : report.per_round) {
    io += round.io_seconds;
    compute += round.compute_seconds;
    scheduler += round.scheduler_seconds;
    iterations += round.iterations_covered;
    read_bytes += round.read_bytes;
  }
  EXPECT_NEAR(report.io_seconds, io, 1e-9);
  EXPECT_NEAR(report.compute_seconds, compute, 1e-9);
  EXPECT_NEAR(report.scheduler_seconds, scheduler, 1e-9);
  EXPECT_EQ(report.iterations, iterations);
  EXPECT_EQ(report.io.TotalReadBytes(), read_bytes);
  EXPECT_EQ(report.rounds, report.per_round.size());
}

TEST_F(EngineIoTest, ReportNamesEngineAlgorithmDataset) {
  core::GraphSDEngine engine(*t_.dataset, {});
  algos::Bfs bfs(0);
  const auto report = ValueOrDie(engine.Run(bfs));
  EXPECT_EQ(report.engine, "GraphSD");
  EXPECT_EQ(report.algorithm, "bfs");
  EXPECT_EQ(report.dataset, "test");
  EXPECT_FALSE(report.Summary().empty());
}

TEST_F(EngineIoTest, VertexValueTrafficChargedEveryRound) {
  core::GraphSDEngine engine(*t_.dataset, {});
  algos::PageRank pr(4);
  const auto report = ValueOrDie(engine.Run(pr));
  const std::uint64_t values_bytes =
      static_cast<std::uint64_t>(t_.dataset->num_vertices()) * 8;
  // Initial persist + one load and one persist per round.
  EXPECT_GE(report.io.TotalWriteBytes(), values_bytes * report.rounds);
  EXPECT_GE(report.io.TotalReadBytes(), values_bytes * report.rounds);
}

TEST_F(EngineIoTest, UnweightedAlgorithmNeverReadsWeightFiles) {
  // The dataset is weighted; BFS must stream only the 8-byte edge records.
  core::EngineOptions options;
  options.enable_selective = false;  // full loads: easy arithmetic
  options.enable_cross_iteration = false;
  options.enable_buffering = false;
  core::GraphSDEngine engine(*t_.dataset, options);
  algos::Bfs bfs(0);
  const auto report = ValueOrDie(engine.Run(bfs));
  const std::uint64_t edge_bytes = t_.dataset->num_edges() * kEdgeBytes;
  const std::uint64_t values_bytes =
      static_cast<std::uint64_t>(t_.dataset->num_vertices()) * 8;
  // Edges once per round + values; weight bytes would add 50% more.
  const std::uint64_t expected_max =
      (edge_bytes + 2 * values_bytes) * report.rounds + values_bytes;
  EXPECT_LE(report.io.TotalReadBytes(), expected_max);
}

TEST_F(EngineIoTest, SsspReadsWeightsToo) {
  core::EngineOptions options;
  options.enable_selective = false;
  options.enable_cross_iteration = false;
  options.enable_buffering = false;
  options.max_iterations = 1;
  core::GraphSDEngine engine(*t_.dataset, options);
  algos::Sssp sssp(0);
  const auto report = ValueOrDie(engine.Run(sssp));
  const std::uint64_t with_weights =
      t_.dataset->num_edges() * (kEdgeBytes + kWeightBytes);
  EXPECT_GE(report.io.TotalReadBytes(), with_weights);
}

TEST_F(EngineIoTest, SciuRoundsReadLessThanFullGrid) {
  core::EngineOptions options;
  options.force_on_demand = true;
  core::GraphSDEngine engine(*t_.dataset, options);
  algos::Sssp sssp(0);
  const auto report = ValueOrDie(engine.Run(sssp));
  const std::uint64_t full =
      t_.dataset->num_edges() * (kEdgeBytes + kWeightBytes);
  bool some_small_round = false;
  for (const auto& round : report.per_round) {
    EXPECT_EQ(round.model == core::RoundModel::kSciu ||
                  round.model == core::RoundModel::kSkipped,
              true);
    if (round.read_bytes > 0 && round.read_bytes < full / 2) {
      some_small_round = true;
    }
  }
  EXPECT_TRUE(some_small_round);
}

TEST_F(EngineIoTest, ScratchDirRedirectsValueFile) {
  TempDir scratch;
  core::EngineOptions options;
  options.scratch_dir = scratch.path();
  core::GraphSDEngine engine(*t_.dataset, options);
  algos::Bfs bfs(0);
  (void)ValueOrDie(engine.Run(bfs));
  EXPECT_TRUE(io::PathExists(scratch.path() + "/values_bfs.bin"));
}

TEST_F(EngineIoTest, IndexlessDatasetDegradesToFullModel) {
  // Build a Lumos-style layout (no index) and check GraphSD still runs,
  // with selective silently disabled.
  TempDir dir2;
  auto device = io::MakeSimulatedDevice();
  partition::GridBuildOptions build;
  build.num_intervals = 4;
  build.sort_sub_blocks = false;
  build.build_index = false;
  (void)ValueOrDie(partition::BuildGrid(t_.graph, *device, dir2.Sub("ds"), build));
  const auto ds = ValueOrDie(partition::GridDataset::Open(*device, dir2.Sub("ds")));
  core::GraphSDEngine engine(ds, {});
  algos::Bfs bfs(0);
  const auto report = ValueOrDie(engine.Run(bfs));
  for (const auto& round : report.per_round) {
    EXPECT_NE(round.model, core::RoundModel::kSciu);
  }
  const auto reference = ReferenceBfs(t_.graph, 0);
  for (VertexId v = 0; v < t_.graph.num_vertices(); ++v) {
    const std::uint64_t want =
        reference[v] == kUnreachedLevel ? UINT64_MAX : reference[v];
    EXPECT_EQ(algos::Bfs::LevelOf(*engine.state(), v), want);
  }
}

TEST_F(EngineIoTest, RealSsdBackendMatchesPosixBitwise) {
  // The direct-I/O bounce path and gap-merged vectored reads are purely
  // physical concerns: a run on the real:ssd backend must return exactly
  // the values of a plain posix run, on both the streaming path and the
  // on-demand (scattered-run ReadRuns) path.
  for (const bool on_demand : {false, true}) {
    std::optional<std::vector<double>> reference;
    for (const char* kind : {"posix", "real:ssd"}) {
      SCOPED_TRACE(std::string(kind) + (on_demand ? " on_demand" : " auto"));
      auto device = ValueOrDie(io::MakeDeviceForKind(kind));
      const auto ds =
          ValueOrDie(partition::GridDataset::Open(*device, dir_.Sub("ds")));
      TempDir scratch;
      core::EngineOptions options;
      options.force_on_demand = on_demand;
      options.scratch_dir = scratch.path();
      core::GraphSDEngine engine(ds, options);
      algos::Sssp sssp(0);
      (void)ValueOrDie(engine.Run(sssp));
      const std::vector<double> values =
          testing::Values(sssp, *engine.state());
      if (!reference.has_value()) {
        reference = values;
        continue;
      }
      ASSERT_EQ(values.size(), reference->size());
      for (std::size_t v = 0; v < values.size(); ++v) {
        EXPECT_EQ(values[v], (*reference)[v]) << "vertex " << v;
      }
    }
  }
}

// The run report's gauges name the read path: one prefetch reader on a
// modeled device and two on a real one, the payload pool's resident and
// free bytes, and on real:ssd a full-streaming run (PageRank) that reads
// every payload and state array straight in, with no bounce.
TEST_F(EngineIoTest, GaugesReportReadersPoolBytesAndDirectReads) {
  for (const char* kind : {"sim:scaled-hdd", "real:ssd"}) {
    SCOPED_TRACE(kind);
    auto device = ValueOrDie(io::MakeDeviceForKind(kind));
    const auto ds =
        ValueOrDie(partition::GridDataset::Open(*device, dir_.Sub("ds")));
    TempDir scratch;
    obs::MetricsRegistry metrics;
    core::EngineOptions options;
    options.scratch_dir = scratch.path();
    options.metrics = &metrics;
    core::GraphSDEngine engine(ds, options);
    algos::PageRank pr(5);
    (void)ValueOrDie(engine.Run(pr));
    const bool real = std::string(kind) == "real:ssd";
    EXPECT_EQ(metrics.GetGauge("prefetch.depth").value(), 4.0);
    EXPECT_EQ(metrics.GetGauge("prefetch.readers").value(), real ? 2.0 : 1.0);
    const double resident = metrics.GetGauge("pool.resident_bytes").value();
    EXPECT_GT(resident, 0.0);
    EXPECT_LE(metrics.GetGauge("pool.free_bytes").value(), resident);
    if (real) {
      EXPECT_EQ(metrics.GetGauge("device.bounce_reads").value(), 0.0);
    }
  }
}

TEST_F(EngineIoTest, PerRoundRecordingCanBeDisabled) {
  core::EngineOptions options;
  options.record_per_round = false;
  core::GraphSDEngine engine(*t_.dataset, options);
  algos::Bfs bfs(0);
  const auto report = ValueOrDie(engine.Run(bfs));
  EXPECT_TRUE(report.per_round.empty());
  EXPECT_GT(report.rounds, 0u);
}

}  // namespace
}  // namespace graphsd
