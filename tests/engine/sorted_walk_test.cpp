// The active-source walk end to end: a filtered FCIU or semi pass over a
// sorted dataset walks only its active sources' edges, and a dataset
// recorded as unsorted takes the linear loop. Both datasets below store
// the same edges in the same file order (the input is pre-sorted, and the
// unsorted build keeps input order), so the two paths must agree bit for
// bit, and SSSP and BFS must equal the reference exactly.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "engine_test_util.hpp"

namespace graphsd {
namespace {

using testing::ExpectValuesBitIdentical;
using testing::ExpectValuesNear;
using testing::TempDir;
using testing::Values;
using testing::ValueOrDie;

struct Layout {
  std::unique_ptr<io::Device> device;
  std::unique_ptr<partition::GridDataset> dataset;
};

class SortedWalkEngine : public ::testing::Test {
 protected:
  void SetUp() override {
    WebGraphOptions o;
    o.num_vertices = 3000;
    o.avg_degree = 8;
    o.max_weight = 10.0;
    graph_ = GenerateWebGraph(o);
    graph_.SortBySource();
    sorted_ = Build(true);
    unsorted_ = Build(false);
    ASSERT_TRUE(sorted_.dataset->manifest().sorted);
    ASSERT_FALSE(unsorted_.dataset->manifest().sorted);
  }

  Layout Build(bool sort) {
    Layout layout;
    layout.device = io::MakeSimulatedDevice(io::IoCostModel::ScaledHdd());
    partition::GridBuildOptions build;
    build.num_intervals = 4;
    build.sort_sub_blocks = sort;
    build.build_index = sort;
    const std::string dir = dir_.Sub(sort ? "sorted" : "unsorted");
    (void)ValueOrDie(partition::BuildGrid(graph_, *layout.device, dir, build));
    layout.dataset = std::make_unique<partition::GridDataset>(
        ValueOrDie(partition::GridDataset::Open(*layout.device, dir)));
    return layout;
  }

  /// Runs `program` with every round forced to `choice` (kFull: FCIU
  /// two-iteration rounds; kSemi: semi rounds) and returns its values.
  template <typename Program>
  std::vector<double> Run(const Layout& layout, core::RoundModelChoice choice,
                          Program program) const {
    core::EngineOptions options;
    options.semi_external = choice == core::RoundModelChoice::kSemi;
    options.model_override = [choice](std::uint32_t) { return choice; };
    core::GraphSDEngine engine(*layout.dataset, options);
    const core::ExecutionReport report = ValueOrDie(engine.Run(program));
    const core::RoundModel want = choice == core::RoundModelChoice::kSemi
                                      ? core::RoundModel::kSemi
                                      : core::RoundModel::kFciu;
    std::uint32_t forced_rounds = 0;
    for (const core::RoundStat& round : report.per_round) {
      if (round.model == want) ++forced_rounds;
    }
    EXPECT_GT(forced_rounds, 0u);
    return Values(program, *engine.state());
  }

  /// Both layouts under `choice`: bitwise equal to each other; returns the
  /// sorted layout's values.
  template <typename Program>
  std::vector<double> RunBoth(core::RoundModelChoice choice,
                              const Program& program) const {
    const std::vector<double> walked = Run(sorted_, choice, program);
    ExpectValuesBitIdentical(Run(unsorted_, choice, program), walked);
    return walked;
  }

  TempDir dir_;
  EdgeList graph_;
  Layout sorted_;
  Layout unsorted_;
};

constexpr core::RoundModelChoice kForced[] = {core::RoundModelChoice::kFull,
                                              core::RoundModelChoice::kSemi};

std::string ChoiceName(core::RoundModelChoice choice) {
  return choice == core::RoundModelChoice::kSemi ? "semi" : "fciu";
}

TEST_F(SortedWalkEngine, SsspMatchesReferenceBitwise) {
  const std::vector<double> want = ReferenceSssp(graph_, 0);
  for (const core::RoundModelChoice choice : kForced) {
    SCOPED_TRACE(ChoiceName(choice));
    ExpectValuesBitIdentical(RunBoth(choice, algos::Sssp(0)), want);
  }
}

TEST_F(SortedWalkEngine, BfsMatchesReferenceBitwise) {
  const std::vector<std::uint32_t> levels = ReferenceBfs(graph_, 0);
  std::vector<double> want(levels.size());
  for (std::size_t v = 0; v < levels.size(); ++v) {
    want[v] = levels[v] == kUnreachedLevel
                  ? static_cast<double>(UINT64_MAX)
                  : static_cast<double>(levels[v]);
  }
  for (const core::RoundModelChoice choice : kForced) {
    SCOPED_TRACE(ChoiceName(choice));
    ExpectValuesBitIdentical(RunBoth(choice, algos::Bfs(0)), want);
  }
}

TEST_F(SortedWalkEngine, PageRankDeltaLayoutsAgreeBitwise) {
  // Sums depend on the round shape, so FCIU and semi each compare their
  // two layouts bitwise and the reference fixpoint within tolerance.
  const std::vector<double> want = ReferencePageRank(graph_, 200);
  for (const core::RoundModelChoice choice : kForced) {
    SCOPED_TRACE(ChoiceName(choice));
    ExpectValuesNear(RunBoth(choice, algos::PageRankDelta(1e-12)), want, 1e-7);
  }
}

}  // namespace
}  // namespace graphsd
