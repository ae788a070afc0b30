// Degenerate-input regression suite: the grid builder and both update
// models must handle the pathological corners — no edges at all, a single
// vertex, self-loops, duplicate (multi-)edges — and must handle them
// identically whichever model the scheduler is forced into and whatever the
// prefetch depth. These inputs historically break out-of-core systems in
// boundary arithmetic (empty sub-blocks, zero-degree intervals) rather than
// in the algorithms themselves.
#include <cmath>
#include <limits>
#include <optional>
#include <vector>

#include <gtest/gtest.h>

#include "engine_test_util.hpp"

namespace graphsd {
namespace {

using testing::MakeDataset;
using testing::TempDir;
using testing::TestDataset;
using testing::Values;
using testing::ValueOrDie;

/// The model/prefetch grid every degenerate input is swept across.
struct EngineConfig {
  const char* name;
  bool force_on_demand;
  bool enable_selective;
  std::size_t prefetch_depth;
};

constexpr EngineConfig kEngineConfigs[] = {
    {"default_sync", false, true, 0},   {"sciu_sync", true, true, 0},
    {"fciu_sync", false, false, 0},     {"default_depth4", false, true, 4},
    {"sciu_depth4", true, true, 4},     {"fciu_depth4", false, false, 4},
};

core::EngineOptions MakeOptions(const EngineConfig& config) {
  core::EngineOptions options;
  options.force_on_demand = config.force_on_demand;
  options.enable_selective = config.enable_selective;
  options.prefetch_depth = config.prefetch_depth;
  return options;
}

/// Runs `make_program()` on `graph` under every engine configuration,
/// requires all runs to agree bitwise, and returns the agreed values.
template <typename MakeProgram>
std::vector<double> RunEverywhere(const EdgeList& graph, std::uint32_t p,
                                  MakeProgram make_program) {
  TempDir dir;
  std::optional<std::vector<double>> agreed;
  for (const EngineConfig& config : kEngineConfigs) {
    SCOPED_TRACE(config.name);
    TestDataset t = MakeDataset(graph, dir.Sub(config.name), p);
    auto program = make_program();
    core::GraphSDEngine engine(*t.dataset, MakeOptions(config));
    const core::ExecutionReport report = ValueOrDie(engine.Run(program));
    (void)report;
    std::vector<double> values = Values(program, *engine.state());
    if (!agreed.has_value()) {
      agreed = std::move(values);
      continue;
    }
    EXPECT_EQ(values.size(), agreed->size());
    if (values.size() != agreed->size()) continue;
    for (std::size_t v = 0; v < values.size(); ++v) {
      EXPECT_EQ(values[v], (*agreed)[v]) << "vertex " << v;
    }
  }
  return *agreed;
}

constexpr double kInf = std::numeric_limits<double>::infinity();

TEST(DegenerateInput, EdgeFreeGraphSssp) {
  // Vertices exist, edges don't: every round sees an empty fetch set.
  EdgeList graph(16);
  const std::vector<double> dist =
      RunEverywhere(graph, 4, [] { return algos::Sssp(0); });
  ASSERT_EQ(dist.size(), 16u);
  EXPECT_EQ(dist[0], 0.0);
  for (std::size_t v = 1; v < dist.size(); ++v) EXPECT_EQ(dist[v], kInf);
}

TEST(DegenerateInput, EdgeFreeGraphPageRank) {
  EdgeList graph(16);
  const std::vector<double> rank =
      RunEverywhere(graph, 4, [] { return algos::PageRank(5); });
  ASSERT_EQ(rank.size(), 16u);
  // No links: every vertex keeps the teleport mass, uniformly.
  for (std::size_t v = 1; v < rank.size(); ++v) EXPECT_EQ(rank[v], rank[0]);
}

TEST(DegenerateInput, SingleVertexNoEdges) {
  EdgeList graph(1);
  const std::vector<double> dist =
      RunEverywhere(graph, 1, [] { return algos::Sssp(0); });
  ASSERT_EQ(dist.size(), 1u);
  EXPECT_EQ(dist[0], 0.0);
}

TEST(DegenerateInput, SingleVertexSelfLoop) {
  EdgeList graph(1);
  graph.AddEdge(0, 0, 2.5);
  const std::vector<double> dist =
      RunEverywhere(graph, 1, [] { return algos::Sssp(0); });
  ASSERT_EQ(dist.size(), 1u);
  // The self-loop relaxation 0 + 2.5 never improves on 0.
  EXPECT_EQ(dist[0], 0.0);
}

TEST(DegenerateInput, SelfLoopsEverywhere) {
  // A path where every vertex also points at itself: self-loops must be
  // carried through partitioning (diagonal sub-blocks) without disturbing
  // the real shortest paths.
  constexpr VertexId kN = 64;
  EdgeList graph(kN);
  for (VertexId v = 0; v < kN; ++v) {
    graph.AddEdge(v, v, 0.5);
    if (v + 1 < kN) graph.AddEdge(v, v + 1, 1.0);
  }
  const std::vector<double> dist =
      RunEverywhere(graph, 4, [] { return algos::Sssp(0); });
  ASSERT_EQ(dist.size(), kN);
  for (VertexId v = 0; v < kN; ++v) {
    EXPECT_EQ(dist[v], static_cast<double>(v)) << "vertex " << v;
  }
}

TEST(DegenerateInput, DuplicateEdgesActAsOne) {
  // A multigraph chain with every edge tripled. Min-plus relaxation is
  // idempotent, so duplicates must not change distances — only traffic.
  constexpr VertexId kN = 48;
  EdgeList graph(kN);
  for (VertexId v = 0; v + 1 < kN; ++v) {
    for (int copy = 0; copy < 3; ++copy) graph.AddEdge(v, v + 1, 2.0);
  }
  const std::vector<double> dist =
      RunEverywhere(graph, 4, [] { return algos::Sssp(0); });
  const std::vector<double> want = ReferenceSssp(graph, 0);
  ASSERT_EQ(dist.size(), want.size());
  for (VertexId v = 0; v < kN; ++v) {
    EXPECT_EQ(dist[v], want[v]) << "vertex " << v;
  }
}

TEST(DegenerateInput, DuplicatesAndSelfLoopsCombined) {
  // Star with duplicated spokes and a self-loop at the hub, symmetrized,
  // through connected components: one component, whatever the model.
  EdgeList graph(10);
  for (VertexId v = 1; v < 10; ++v) {
    graph.AddEdge(0, v, 1.0);
    graph.AddEdge(0, v, 1.0);  // duplicate spoke
    graph.AddEdge(v, 0, 1.0);
  }
  graph.AddEdge(0, 0, 1.0);  // hub self-loop
  const std::vector<double> comp =
      RunEverywhere(graph, 2, [] { return algos::ConnectedComponents(); });
  ASSERT_EQ(comp.size(), 10u);
  for (std::size_t v = 0; v < comp.size(); ++v) {
    EXPECT_EQ(comp[v], comp[0]) << "vertex " << v;
  }
}

TEST(DegenerateInput, MoreIntervalsThanOccupiedOnes) {
  // p far larger than the occupied vertex range: most sub-blocks are empty
  // files. All models must read them as empty, not fail.
  EdgeList graph(8);
  graph.AddEdge(0, 1, 1.0);
  graph.AddEdge(1, 2, 1.0);
  const std::vector<double> dist =
      RunEverywhere(graph, 8, [] { return algos::Sssp(0); });
  ASSERT_EQ(dist.size(), 8u);
  EXPECT_EQ(dist[0], 0.0);
  EXPECT_EQ(dist[1], 1.0);
  EXPECT_EQ(dist[2], 2.0);
  for (std::size_t v = 3; v < dist.size(); ++v) EXPECT_EQ(dist[v], kInf);
}

}  // namespace
}  // namespace graphsd
