// Non-finite guards in the monotone path programs, plus oracle-backed
// saturating-path checks: float-max weight chains must stay finite and
// bitwise-identical between the engine and the in-memory oracle.
#include <cmath>
#include <limits>
#include <vector>

#include <gtest/gtest.h>

#include "algos/sssp.hpp"
#include "algos/widest_path.hpp"
#include "core/frontier.hpp"
#include "core/vertex_state.hpp"
#include "testing/difftest.hpp"
#include "testing/temp_dir.hpp"
#include "testing_util.hpp"

namespace graphsd::testing {
namespace {

constexpr float kFloatMax = std::numeric_limits<float>::max();

// Weights are validated finite and nonnegative at build/load, so these
// guards only fire on corrupted state — but when they do, a non-finite
// candidate must neither win a combine nor activate the destination.
TEST(NonFiniteGuards, SsspRejectsNonFiniteCandidates) {
  algos::Sssp sssp(0);
  core::VertexState state(2, sssp.num_value_arrays(), /*gather=*/false);
  core::Frontier initial(2);
  const std::vector<std::uint32_t> degrees{1, 0};
  sssp.Bind(degrees);
  sssp.Init(state, initial);
  sssp.MakeContribution(state, 0, core::ContribSlot::kPrimary);

  // A -inf weight would otherwise beat the unreached (+inf) distance.
  EXPECT_FALSE(sssp.Apply(state, 0, 1,
                          -std::numeric_limits<float>::infinity(),
                          core::ContribSlot::kPrimary));
  EXPECT_TRUE(std::isinf(sssp.ValueOf(state, 1)));
  EXPECT_FALSE(sssp.Apply(state, 0, 1,
                          std::numeric_limits<float>::quiet_NaN(),
                          core::ContribSlot::kPrimary));
  EXPECT_TRUE(std::isinf(sssp.ValueOf(state, 1)));

  // The largest finite weight still relaxes normally.
  EXPECT_TRUE(sssp.Apply(state, 0, 1, kFloatMax,
                         core::ContribSlot::kPrimary));
  EXPECT_EQ(sssp.ValueOf(state, 1), static_cast<double>(kFloatMax));
}

TEST(NonFiniteGuards, WidestPathRejectsNonFiniteBottleneck) {
  algos::WidestPath widest(0);
  core::VertexState state(2, widest.num_value_arrays(), /*gather=*/false);
  core::Frontier initial(2);
  const std::vector<std::uint32_t> degrees{1, 0};
  widest.Bind(degrees);
  widest.Init(state, initial);
  widest.MakeContribution(state, 0, core::ContribSlot::kPrimary);

  // The root's width is +inf, so min(src_width, +inf weight) = +inf would
  // install an unbeatable non-finite width without the guard.
  EXPECT_FALSE(widest.Apply(state, 0, 1,
                            std::numeric_limits<float>::infinity(),
                            core::ContribSlot::kPrimary));
  EXPECT_EQ(widest.ValueOf(state, 1), 0.0);  // still unreached
  EXPECT_FALSE(widest.Apply(state, 0, 1,
                            std::numeric_limits<float>::quiet_NaN(),
                            core::ContribSlot::kPrimary));
  EXPECT_EQ(widest.ValueOf(state, 1), 0.0);

  EXPECT_TRUE(widest.Apply(state, 0, 1, kFloatMax,
                           core::ContribSlot::kPrimary));
  EXPECT_EQ(widest.ValueOf(state, 1), static_cast<double>(kFloatMax));
}

// Runs every forced-model / cross-iteration combination of one
// algorithm over `graph` through the differential harness; any divergence
// from the oracle (values are compared bitwise for these monotone
// algorithms) fails the test.
void ExpectAllTrialsMatchOracle(const EdgeList& graph, VertexId root,
                                const std::string& algo) {
  ScratchDir scratch = ValueOrDie(ScratchDir::Create());
  const BuiltDataset built =
      ValueOrDie(BuildCaseDataset(graph, "none", 2, scratch.path() + "/ds"));
  for (const char* model : {"auto", "on_demand", "full"}) {
    for (bool cross : {false, true}) {
      TrialConfig config;
      config.algo = algo;
      config.model = model;
      config.cross_iteration = cross;
      const auto divergence =
          ValueOrDie(RunTrial(graph, root, *built.dataset, config));
      EXPECT_FALSE(divergence.has_value())
          << algo << " model=" << model << " cross=" << cross << ": "
          << DescribeDivergence(*divergence);
    }
  }
}

// Chained float-max-scale weights: path sums approach the float range but
// stay finite in the double domain, and the direct heavy edge must lose to
// the lighter chain exactly as in the oracle.
TEST(SaturatingPaths, SsspFloatMaxChainsMatchOracleBitwise) {
  EdgeList graph(6);
  const float big = kFloatMax / 8;
  for (VertexId v = 0; v + 1 < 5; ++v) graph.AddEdge(v, v + 1, big);
  graph.AddEdge(0, 4, kFloatMax);  // heavier than the whole chain
  graph.AddEdge(4, 5, big);
  ASSERT_OK(graph.Validate());
  ExpectAllTrialsMatchOracle(graph, 0, "sssp");
}

TEST(SaturatingPaths, WidestPathFloatMaxChainsMatchOracleBitwise) {
  EdgeList graph(6);
  // A wide chain with one narrow bottleneck edge, against a direct
  // float-max edge: the bottleneck combine saturates at finite float-max.
  graph.AddEdge(0, 1, kFloatMax);
  graph.AddEdge(1, 2, kFloatMax);
  graph.AddEdge(2, 3, 1.0f);
  graph.AddEdge(3, 4, kFloatMax);
  graph.AddEdge(0, 4, kFloatMax);
  graph.AddEdge(4, 5, kFloatMax / 2);
  ASSERT_OK(graph.Validate());
  ExpectAllTrialsMatchOracle(graph, 0, "widest_path");
}

}  // namespace
}  // namespace graphsd::testing
