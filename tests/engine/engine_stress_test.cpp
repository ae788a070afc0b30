// Stress tests: larger graphs, a loader thread beside the consumer, repeated
// runs.
#include <gtest/gtest.h>

#include "algos/widest_path.hpp"
#include "engine_test_util.hpp"

namespace graphsd {
namespace {

using testing::ExpectValuesNear;
using testing::MakeDataset;
using testing::TempDir;
using testing::TestDataset;
using testing::Values;
using testing::ValueOrDie;

class EngineStressTest : public ::testing::Test {
 protected:
  void SetUp() override {
    RmatOptions o;
    o.scale = 12;  // ~4k vertices, ~45k edges: largest graph in the suite
    o.edge_factor = 12;
    o.max_weight = 50.0;
    t_ = MakeDataset(GenerateRmat(o), dir_.Sub("ds"), 8);
  }
  TempDir dir_;
  TestDataset t_;
};

// Depth 0 runs on one thread; any other depth adds the loader thread.
TEST_F(EngineStressTest, SsspIdenticalAcrossThreadCounts) {
  const auto reference = ReferenceSssp(t_.graph, 0);
  for (const std::size_t depth : {0u, 1u, 4u}) {
    core::EngineOptions options;
    options.prefetch_depth = depth;
    core::GraphSDEngine engine(*t_.dataset, options);
    algos::Sssp sssp(0);
    (void)ValueOrDie(engine.Run(sssp));
    SCOPED_TRACE(depth);
    ExpectValuesNear(Values(sssp, *engine.state()), reference, 1e-9);
  }
}

TEST_F(EngineStressTest, CcLabelsBitIdenticalAcrossRepeatedParallelRuns) {
  // Runs with a four-deep loader must land on identical labels run after
  // run.
  TempDir dir2;
  TestDataset sym = MakeDataset(Symmetrize(t_.graph), dir2.Sub("sym"), 8);
  core::EngineOptions options;
  options.prefetch_depth = 4;
  std::vector<VertexId> first;
  for (int run = 0; run < 3; ++run) {
    core::GraphSDEngine engine(*sym.dataset, options);
    algos::ConnectedComponents cc;
    (void)ValueOrDie(engine.Run(cc));
    std::vector<VertexId> labels(sym.graph.num_vertices());
    for (VertexId v = 0; v < sym.graph.num_vertices(); ++v) {
      labels[v] = algos::ConnectedComponents::LabelOf(*engine.state(), v);
    }
    if (run == 0) {
      first = labels;
    } else {
      ASSERT_EQ(labels, first) << "run " << run;
    }
  }
}

TEST_F(EngineStressTest, PageRankStableAcrossThreadCounts) {
  // The reference sums in a different order than the grid does; values
  // must agree to fp round-off, not bit-exactness.
  const auto reference = ReferencePageRank(t_.graph, 8);
  for (const std::size_t depth : {0u, 4u}) {
    core::EngineOptions options;
    options.prefetch_depth = depth;
    core::GraphSDEngine engine(*t_.dataset, options);
    algos::PageRank pr(8);
    (void)ValueOrDie(engine.Run(pr));
    SCOPED_TRACE(depth);
    ExpectValuesNear(Values(pr, *engine.state()), reference, 1e-10);
  }
}

TEST_F(EngineStressTest, WidestPathAtScale) {
  const auto reference = ReferenceWidestPath(t_.graph, 0);
  core::EngineOptions options;
  core::GraphSDEngine engine(*t_.dataset, options);
  algos::WidestPath widest(0);
  (void)ValueOrDie(engine.Run(widest));
  ExpectValuesNear(Values(widest, *engine.state()), reference, 1e-9);
}

TEST_F(EngineStressTest, ModeledIoIsDeterministicAcrossRuns) {
  // The virtual clock depends only on the request sequence, which is
  // deterministic for a fixed dataset and options — even with a loader
  // thread, which performs the reads in plan order.
  core::EngineOptions options;
  options.prefetch_depth = 4;
  double first = -1;
  for (int run = 0; run < 2; ++run) {
    core::GraphSDEngine engine(*t_.dataset, options);
    algos::PageRank pr(4);
    const auto report = ValueOrDie(engine.Run(pr));
    if (first < 0) {
      first = report.io_seconds;
    } else {
      EXPECT_DOUBLE_EQ(report.io_seconds, first);
    }
  }
}

TEST_F(EngineStressTest, ManySequentialRunsDoNotLeakState) {
  // Alternate algorithms on one dataset; each run must be self-contained
  // (fresh values file, fresh frontiers, fresh buffer).
  const auto sssp_reference = ReferenceSssp(t_.graph, 3);
  const auto bfs_reference = ReferenceBfs(t_.graph, 3);
  for (int round = 0; round < 3; ++round) {
    core::GraphSDEngine engine(*t_.dataset, {});
    algos::Sssp sssp(3);
    (void)ValueOrDie(engine.Run(sssp));
    ExpectValuesNear(Values(sssp, *engine.state()), sssp_reference, 1e-9);

    core::GraphSDEngine engine2(*t_.dataset, {});
    algos::Bfs bfs(3);
    (void)ValueOrDie(engine2.Run(bfs));
    for (VertexId v = 0; v < t_.graph.num_vertices(); ++v) {
      const std::uint64_t want = bfs_reference[v] == kUnreachedLevel
                                     ? UINT64_MAX
                                     : bfs_reference[v];
      ASSERT_EQ(algos::Bfs::LevelOf(*engine2.state(), v), want);
    }
  }
}

}  // namespace
}  // namespace graphsd
