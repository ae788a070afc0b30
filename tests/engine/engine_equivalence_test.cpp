// Equivalence tests: every engine configuration (update models, ablations,
// buffering, prefetch depth, forced I/O models) must compute identical
// results — the optimizations are about I/O, never about answers.
#include <gtest/gtest.h>

#include "engine_test_util.hpp"

namespace graphsd {
namespace {

using testing::ExpectValuesNear;
using testing::kGraphCases;
using testing::MakeDataset;
using testing::TempDir;
using testing::TestDataset;
using testing::Values;
using testing::ValueOrDie;

struct ConfigCase {
  const char* name;
  core::EngineOptions options;
};

std::vector<ConfigCase> AllConfigs() {
  std::vector<ConfigCase> configs;
  {
    core::EngineOptions o;
    configs.push_back({"default", o});
  }
  {
    core::EngineOptions o;
    o.enable_cross_iteration = false;
    configs.push_back({"b1_no_cross_iteration", o});
  }
  {
    core::EngineOptions o;
    o.enable_selective = false;
    configs.push_back({"b2_no_selective", o});
  }
  {
    core::EngineOptions o;
    o.force_on_demand = true;
    configs.push_back({"b4_always_on_demand", o});
  }
  {
    core::EngineOptions o;
    o.enable_buffering = false;
    configs.push_back({"no_buffer", o});
  }
  {
    core::EngineOptions o;
    o.prefetch_depth = 0;
    configs.push_back({"sync_io", o});
  }
  {
    core::EngineOptions o;
    o.enable_cross_iteration = false;
    o.enable_selective = false;
    o.enable_buffering = false;
    configs.push_back({"plain_bsp", o});
  }
  return configs;
}

class EngineEquivalence : public ::testing::TestWithParam<int> {
 protected:
  const testing::GraphCase& Case() const { return kGraphCases[GetParam()]; }
};

TEST_P(EngineEquivalence, SsspIdenticalAcrossAllConfigs) {
  TempDir dir;
  TestDataset t = MakeDataset(Case().make(), dir.Sub("ds"), 4);
  const auto reference = ReferenceSssp(t.graph, 0);
  for (const ConfigCase& config : AllConfigs()) {
    core::GraphSDEngine engine(*t.dataset, config.options);
    algos::Sssp sssp(0);
    (void)ValueOrDie(engine.Run(sssp));
    SCOPED_TRACE(config.name);
    ExpectValuesNear(Values(sssp, *engine.state()), reference, 1e-9);
  }
}

TEST_P(EngineEquivalence, CcIdenticalAcrossAllConfigs) {
  TempDir dir;
  const EdgeList sym = Symmetrize(Case().make());
  TestDataset t = MakeDataset(sym, dir.Sub("ds"), 4);
  const auto reference = ReferenceConnectedComponents(sym);
  for (const ConfigCase& config : AllConfigs()) {
    core::GraphSDEngine engine(*t.dataset, config.options);
    algos::ConnectedComponents cc;
    (void)ValueOrDie(engine.Run(cc));
    SCOPED_TRACE(config.name);
    for (VertexId v = 0; v < sym.num_vertices(); ++v) {
      ASSERT_EQ(algos::ConnectedComponents::LabelOf(*engine.state(), v),
                reference[v])
          << config.name << " vertex " << v;
    }
  }
}

TEST_P(EngineEquivalence, PageRankIdenticalAcrossFullIoConfigs) {
  TempDir dir;
  TestDataset t = MakeDataset(Case().make(), dir.Sub("ds"), 4);
  const auto reference = ReferencePageRank(t.graph, 6);
  for (const ConfigCase& config : AllConfigs()) {
    if (config.options.force_on_demand) continue;  // gather is full-I/O only
    core::GraphSDEngine engine(*t.dataset, config.options);
    algos::PageRank pr(6);
    (void)ValueOrDie(engine.Run(pr));
    SCOPED_TRACE(config.name);
    ExpectValuesNear(Values(pr, *engine.state()), reference, 1e-11);
  }
}

TEST_P(EngineEquivalence, PageRankDeltaSameFixpointAcrossConfigs) {
  TempDir dir;
  TestDataset t = MakeDataset(Case().make(), dir.Sub("ds"), 4);
  const auto reference = ReferencePageRank(t.graph, 200);
  for (const ConfigCase& config : AllConfigs()) {
    core::GraphSDEngine engine(*t.dataset, config.options);
    algos::PageRankDelta prd(1e-12);
    (void)ValueOrDie(engine.Run(prd));
    SCOPED_TRACE(config.name);
    ExpectValuesNear(Values(prd, *engine.state()), reference, 1e-7);
  }
}

INSTANTIATE_TEST_SUITE_P(Families, EngineEquivalence, ::testing::Range(0, 6),
                         [](const ::testing::TestParamInfo<int>& info) {
                           return kGraphCases[info.param].name;
                         });

// Interval count must never change results either.
TEST(EngineEquivalenceAcrossP, BfsIdenticalForAllP) {
  const EdgeList g = testing::MakeRmatCase();
  const auto reference = ReferenceBfs(g, 0);
  for (std::uint32_t p : {1u, 2u, 5u, 16u}) {
    TempDir dir;
    TestDataset t = MakeDataset(g, dir.Sub("ds"), p);
    core::GraphSDEngine engine(*t.dataset, {});
    algos::Bfs bfs(0);
    (void)ValueOrDie(engine.Run(bfs));
    SCOPED_TRACE(p);
    for (VertexId v = 0; v < g.num_vertices(); ++v) {
      const std::uint64_t want =
          reference[v] == kUnreachedLevel ? UINT64_MAX : reference[v];
      ASSERT_EQ(algos::Bfs::LevelOf(*engine.state(), v), want)
          << "p=" << p << " vertex " << v;
    }
  }
}

// Memory-budget pressure disables SCIU retention (no cross-iteration) but
// must not change results.
TEST(EngineEquivalenceBudget, TinySciuBudgetStillCorrect) {
  TempDir dir;
  const EdgeList g = testing::MakeRmatCase();
  TestDataset t = MakeDataset(g, dir.Sub("ds"), 4);
  const auto reference = ReferenceSssp(g, 0);
  core::EngineOptions options;
  options.memory_budget_bytes = 16;  // nothing fits: retention always off
  options.force_on_demand = true;
  core::GraphSDEngine engine(*t.dataset, options);
  algos::Sssp sssp(0);
  (void)ValueOrDie(engine.Run(sssp));
  ExpectValuesNear(Values(sssp, *engine.state()), reference, 1e-9);
}

}  // namespace
}  // namespace graphsd
