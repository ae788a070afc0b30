// Shared helpers for the engine-level test suites.
#pragma once

#include <cmath>
#include <memory>

#include "algos/bfs.hpp"
#include "algos/connected_components.hpp"
#include "algos/pagerank.hpp"
#include "algos/pagerank_delta.hpp"
#include "algos/sssp.hpp"
#include "baselines/hus_graph_engine.hpp"
#include "baselines/lumos_engine.hpp"
#include "core/engine.hpp"
#include "graph/generators.hpp"
#include "graph/reference_algorithms.hpp"
#include "testing_util.hpp"

namespace graphsd::testing {

/// A dataset + device bundle for one graph.
struct TestDataset {
  std::unique_ptr<io::Device> device;
  std::unique_ptr<partition::GridDataset> dataset;
  EdgeList graph;
};

inline TestDataset MakeDataset(EdgeList graph, const std::string& dir,
                               std::uint32_t p,
                               const std::string& codec = "none") {
  TestDataset out;
  // Scaled HDD profile: test graphs are tiny, so the seek cost is scaled to
  // keep the scheduler's on-demand/full crossover where the paper's is.
  out.device = io::MakeSimulatedDevice(io::IoCostModel::ScaledHdd());
  BuildTestGrid(graph, *out.device, dir, p, "test", codec);
  out.dataset = std::make_unique<partition::GridDataset>(
      ValueOrDie(partition::GridDataset::Open(*out.device, dir)));
  out.graph = std::move(graph);
  return out;
}

/// Extracts each vertex's value through the program.
inline std::vector<double> Values(const core::Program& program,
                                  const core::VertexState& state) {
  std::vector<double> out(state.num_vertices());
  for (VertexId v = 0; v < state.num_vertices(); ++v) {
    out[v] = program.ValueOf(state, v);
  }
  return out;
}

/// Requires two value vectors to be bit-identical.
inline void ExpectValuesBitIdentical(const std::vector<double>& got,
                                     const std::vector<double>& want) {
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t v = 0; v < got.size(); ++v) {
    EXPECT_EQ(got[v], want[v]) << "vertex " << v;
  }
}

/// Compares two value vectors; infinities compare equal to each other.
inline void ExpectValuesNear(const std::vector<double>& got,
                             const std::vector<double>& want,
                             double tolerance) {
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t v = 0; v < got.size(); ++v) {
    if (std::isinf(want[v])) {
      EXPECT_TRUE(std::isinf(got[v])) << "vertex " << v;
    } else {
      EXPECT_NEAR(got[v], want[v], tolerance) << "vertex " << v;
    }
  }
}

/// The graph families the parameterized engine tests sweep over.
struct GraphCase {
  const char* name;
  bool weighted;
  EdgeList (*make)();
};

inline EdgeList MakeRmatCase() {
  RmatOptions o;
  o.scale = 8;
  o.edge_factor = 6;
  o.max_weight = 10.0;
  return GenerateRmat(o);
}
inline EdgeList MakeWebCase() {
  WebGraphOptions o;
  o.num_vertices = 400;
  o.avg_degree = 6;
  o.max_weight = 10.0;
  return GenerateWebGraph(o);
}
inline EdgeList MakePathCase() { return GeneratePath(200, 1.5); }
inline EdgeList MakeStarCase() { return GenerateStar(150, 2.0); }
inline EdgeList MakeGridCase() { return GenerateGrid2D(15, 15, 3, 4.0); }
inline EdgeList MakeErCase() {
  ErdosRenyiOptions o;
  o.num_vertices = 300;
  o.num_edges = 2500;
  o.max_weight = 10.0;
  return GenerateErdosRenyi(o);
}

inline const GraphCase kGraphCases[] = {
    {"rmat", true, MakeRmatCase},   {"web", true, MakeWebCase},
    {"path", true, MakePathCase},   {"star", true, MakeStarCase},
    {"grid", true, MakeGridCase},   {"er", true, MakeErCase},
};

}  // namespace graphsd::testing
