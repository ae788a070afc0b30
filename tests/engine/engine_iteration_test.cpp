// Iteration-accounting regressions and the differential-testing hooks.
//
// The engine's `iterations` counter must report *logical BSP waves
// executed*, round shapes notwithstanding: an FCIU round whose second half
// had no frontier covered one wave, not two, and an SCIU round whose
// cross-iteration step ran the following wave to completion covered two,
// not one. The forced-model and frontier-probe hooks (EngineOptions) back
// the differential harness and are pinned here at engine level.
#include <cstdint>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "algos/bfs.hpp"
#include "algos/sssp.hpp"
#include "core/engine.hpp"
#include "core/report.hpp"
#include "engine/engine_test_util.hpp"
#include "graph/generators.hpp"
#include "testing_util.hpp"

namespace graphsd::testing {
namespace {

core::EngineOptions BaseOptions() {
  core::EngineOptions options;
  options.record_per_round = true;
  return options;
}

// Root with no out-edges, forced full model, cross-iteration on: the FCIU
// round's first half drains the frontier, so its second half is vacuous
// and the round spans one BSP iteration — previously accounted as two.
TEST(IterationAccounting, VacuousFciuSecondHalfCountsOneIteration) {
  TempDir dir;
  EdgeList graph(4);
  graph.AddEdge(1, 2);
  graph.AddEdge(2, 3);
  TestDataset td = MakeDataset(std::move(graph), dir.Sub("ds"), 2);

  core::EngineOptions options = BaseOptions();
  options.enable_cross_iteration = true;
  options.model_override = [](std::uint32_t) {
    return core::RoundModelChoice::kFull;
  };
  core::GraphSDEngine engine(*td.dataset, options);
  algos::Bfs bfs(0);
  const core::ExecutionReport report = ValueOrDie(engine.Run(bfs));

  EXPECT_EQ(report.iterations, 1u);
  ASSERT_FALSE(report.per_round.empty());
  EXPECT_EQ(report.per_round.back().iterations_covered, 1u);
}

// SSSP waves on {0->1 w5, 0->2 w1, 2->1 w1}: {0} -> {1,2} -> {1} -> {}.
// In round two the cross-iteration step re-pushes the re-activated vertex
// 1 (no out-edges) and drains the frontier, fully pre-executing wave
// three inside the round — previously accounted as one iteration (total
// 2), but three BSP waves ran.
TEST(IterationAccounting, SciuTerminalCrossIterationCountsPreExecutedWave) {
  TempDir dir;
  EdgeList graph(3);
  graph.AddEdge(0, 1, 5.0f);
  graph.AddEdge(0, 2, 1.0f);
  graph.AddEdge(2, 1, 1.0f);
  TestDataset td = MakeDataset(std::move(graph), dir.Sub("ds"), 2);

  core::EngineOptions options = BaseOptions();
  options.enable_cross_iteration = true;
  options.memory_budget_bytes = 1 << 20;  // retention always fits
  options.model_override = [](std::uint32_t) {
    return core::RoundModelChoice::kOnDemand;
  };
  core::GraphSDEngine engine(*td.dataset, options);
  algos::Sssp sssp(0);
  const core::ExecutionReport report = ValueOrDie(engine.Run(sssp));

  EXPECT_EQ(report.iterations, 3u);
  ASSERT_FALSE(report.per_round.empty());
  EXPECT_EQ(report.per_round.back().model, core::RoundModel::kSciu);
  EXPECT_EQ(report.per_round.back().iterations_covered, 2u);
  EXPECT_EQ(sssp.ValueOf(*engine.state(), 1), 2.0);
  EXPECT_EQ(sssp.ValueOf(*engine.state(), 2), 1.0);
}

// The override pins every round to the directed model, bypassing the cost
// evaluation, and is consulted with each round's first iteration.
TEST(ForcedModelHooks, OverridePinsRoundModels) {
  TempDir dir;
  TestDataset td = MakeDataset(GeneratePath(6), dir.Sub("ds"), 2);

  std::vector<std::uint32_t> consulted;
  core::EngineOptions options = BaseOptions();
  options.enable_cross_iteration = false;
  options.model_override = [&consulted](std::uint32_t first_iteration) {
    consulted.push_back(first_iteration);
    return core::RoundModelChoice::kOnDemand;
  };
  {
    core::GraphSDEngine engine(*td.dataset, options);
    algos::Bfs bfs(0);
    const core::ExecutionReport report = ValueOrDie(engine.Run(bfs));
    ASSERT_FALSE(report.per_round.empty());
    for (const core::RoundStat& round : report.per_round) {
      EXPECT_EQ(round.model, core::RoundModel::kSciu)
          << "round at iteration " << round.first_iteration;
    }
    // One consultation per round, at the round's first (0-based) iteration.
    ASSERT_EQ(consulted.size(), report.per_round.size());
    for (std::size_t r = 0; r < consulted.size(); ++r) {
      EXPECT_EQ(consulted[r], report.per_round[r].first_iteration);
    }
  }

  options.model_override = [](std::uint32_t) {
    return core::RoundModelChoice::kFull;
  };
  core::GraphSDEngine engine(*td.dataset, options);
  algos::Bfs bfs(0);
  const core::ExecutionReport report = ValueOrDie(engine.Run(bfs));
  ASSERT_FALSE(report.per_round.empty());
  for (const core::RoundStat& round : report.per_round) {
    EXPECT_EQ(round.model, core::RoundModel::kPlainFull)
        << "round at iteration " << round.first_iteration;
  }
}

// With cross-iteration off the probe sees exactly the plain-BSP frontier
// sequence: the initial frontier at iteration 0, then the set entering
// every following wave, ending with the drained set.
TEST(FrontierProbe, ReportsPlainBspFrontierSequence) {
  TempDir dir;
  TestDataset td = MakeDataset(GeneratePath(5), dir.Sub("ds"), 2);

  std::vector<std::pair<std::uint32_t, std::vector<VertexId>>> probes;
  core::EngineOptions options = BaseOptions();
  options.enable_cross_iteration = false;
  options.frontier_probe = [&probes](std::uint32_t next_iteration,
                                     const core::Frontier& active) {
    std::vector<VertexId> vertices;
    active.ForEachActive([&vertices](std::size_t v) {
      vertices.push_back(static_cast<VertexId>(v));
    });
    probes.emplace_back(next_iteration, std::move(vertices));
  };
  core::GraphSDEngine engine(*td.dataset, options);
  algos::Bfs bfs(0);
  const core::ExecutionReport report = ValueOrDie(engine.Run(bfs));

  EXPECT_EQ(report.iterations, 5u);
  ASSERT_EQ(probes.size(), 6u);
  for (std::uint32_t k = 0; k < 5; ++k) {
    EXPECT_EQ(probes[k].first, k);
    EXPECT_EQ(probes[k].second, std::vector<VertexId>{k}) << "wave " << k;
  }
  EXPECT_EQ(probes[5].first, 5u);
  EXPECT_TRUE(probes[5].second.empty());
}

}  // namespace
}  // namespace graphsd::testing
