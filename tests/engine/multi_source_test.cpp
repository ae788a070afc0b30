// Batched multi-source programs vs their single-source originals: one
// K-lane engine run must reproduce each lane's solo run. The monotone
// algorithms (BFS / SSSP / widest-path) converge to a unique fixed point,
// so lanes are bit-identical to solo runs even though the batched frontier
// is the OR of the per-lane frontiers. PPR's residual push is consuming,
// so lanes match solo within the usual sum-threshold tolerance.
#include "algos/multi_source.hpp"

#include <bit>
#include <cmath>
#include <cstdint>
#include <memory>
#include <vector>

#include <gtest/gtest.h>

#include "algos/personalized_pagerank.hpp"
#include "algos/widest_path.hpp"
#include "engine/engine_test_util.hpp"

namespace graphsd::testing {
namespace {

std::vector<VertexId> PickRoots(VertexId n) {
  return {0, 1, static_cast<VertexId>(n / 2), static_cast<VertexId>(n - 1)};
}

/// Runs `program` to completion on its own engine and returns the solo
/// per-vertex values.
std::vector<double> RunSolo(const TestDataset& td, core::Program& program,
                            const std::string& scratch) {
  core::EngineOptions options;
  options.scratch_dir = scratch;
  EXPECT_TRUE(io::MakeDirectories(scratch).ok());
  core::GraphSDEngine engine(*td.dataset, options);
  auto report = engine.Run(program);
  EXPECT_TRUE(report.ok()) << report.status().ToString();
  return Values(program, *engine.state());
}

void CheckMonotoneAlgo(const std::string& algo) {
  for (const GraphCase& gc : kGraphCases) {
    SCOPED_TRACE(std::string(algo) + "/" + gc.name);
    TempDir tmp;
    const TestDataset td = MakeDataset(gc.make(), tmp.Sub("ds"), 4);
    const std::vector<VertexId> roots = PickRoots(td.dataset->num_vertices());

    auto multi = algos::MakeMultiSourceProgram(algo, roots);
    ASSERT_NE(multi, nullptr);
    core::EngineOptions options;
    options.scratch_dir = tmp.Sub("multi");
    ASSERT_TRUE(io::MakeDirectories(options.scratch_dir).ok());
    core::GraphSDEngine engine(*td.dataset, options);
    auto report = engine.Run(*multi);
    ASSERT_TRUE(report.ok()) << report.status().ToString();
    const core::VertexState& state = *engine.state();

    for (std::uint32_t lane = 0; lane < roots.size(); ++lane) {
      std::unique_ptr<core::Program> solo;
      if (algo == "bfs") {
        solo = std::make_unique<algos::Bfs>(roots[lane]);
      } else if (algo == "sssp") {
        solo = std::make_unique<algos::Sssp>(roots[lane]);
      } else {
        solo = std::make_unique<algos::WidestPath>(roots[lane]);
      }
      const auto solo_values =
          RunSolo(td, *solo, tmp.Sub("solo" + std::to_string(lane)));
      ASSERT_EQ(solo_values.size(), state.num_vertices());
      for (VertexId v = 0; v < state.num_vertices(); ++v) {
        ASSERT_EQ(
            std::bit_cast<std::uint64_t>(multi->LaneValueOf(state, lane, v)),
            std::bit_cast<std::uint64_t>(solo_values[v]))
            << gc.name << " lane " << lane << " vertex " << v << ": "
            << multi->LaneValueOf(state, lane, v) << " vs " << solo_values[v];
      }
    }
  }
}

TEST(MultiSource, BfsLanesMatchSoloBitExact) { CheckMonotoneAlgo("bfs"); }

TEST(MultiSource, SsspLanesMatchSoloBitExact) { CheckMonotoneAlgo("sssp"); }

TEST(MultiSource, WidestPathLanesMatchSoloBitExact) {
  CheckMonotoneAlgo("widest_path");
}

TEST(MultiSource, PprLanesMatchSoloWithinTolerance) {
  // A couple of structurally different cases keep the runtime sane; the
  // differential sweep covers the rest.
  const GraphCase cases[] = {kGraphCases[0], kGraphCases[3]};  // rmat, star
  const double epsilon = 1e-8;
  for (const GraphCase& gc : cases) {
    SCOPED_TRACE(gc.name);
    TempDir tmp;
    const TestDataset td = MakeDataset(gc.make(), tmp.Sub("ds"), 4);
    const std::vector<VertexId> roots = PickRoots(td.dataset->num_vertices());

    auto multi = algos::MakeMultiSourceProgram("ppr", roots, epsilon);
    ASSERT_NE(multi, nullptr);
    core::EngineOptions options;
    options.scratch_dir = tmp.Sub("multi");
    ASSERT_TRUE(io::MakeDirectories(options.scratch_dir).ok());
    core::GraphSDEngine engine(*td.dataset, options);
    auto report = engine.Run(*multi);
    ASSERT_TRUE(report.ok()) << report.status().ToString();
    const core::VertexState& state = *engine.state();

    for (std::uint32_t lane = 0; lane < roots.size(); ++lane) {
      algos::PersonalizedPageRank solo(roots[lane], epsilon);
      const auto solo_values =
          RunSolo(td, solo, tmp.Sub("solo" + std::to_string(lane)));
      for (VertexId v = 0; v < state.num_vertices(); ++v) {
        const double tol = 2e-6 + 1e-6 * std::fabs(solo_values[v]);
        EXPECT_NEAR(multi->LaneValueOf(state, lane, v), solo_values[v], tol)
            << gc.name << " lane " << lane << " vertex " << v;
      }
    }
  }
}

TEST(MultiSource, FactoryRejectsUnbatchableInputs) {
  EXPECT_EQ(algos::MakeMultiSourceProgram("pr", {0}), nullptr);
  EXPECT_EQ(algos::MakeMultiSourceProgram("cc", {0}), nullptr);
  EXPECT_EQ(algos::MakeMultiSourceProgram("bfs", {}), nullptr);
  EXPECT_NE(algos::MakeMultiSourceProgram("bfs", {0}), nullptr);
  EXPECT_TRUE(algos::IsBatchableAlgo("sssp"));
  EXPECT_FALSE(algos::IsBatchableAlgo("prd"));
}

}  // namespace
}  // namespace graphsd::testing
