// Semi-external-memory mode (DESIGN.md §14): RAM-resident vertex state,
// active-source skip summaries consulted before any edge I/O, and buffer
// hits on compressed datasets. The mode is an I/O optimization only — every
// test here pins its results against the default engine or a reference
// run.
#include <gtest/gtest.h>

#include <bit>

#include "core/skip_summary.hpp"
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

core::EngineOptions SemiOptions() {
  core::EngineOptions o;
  o.semi_external = true;
  return o;
}

class SemiExternal : public ::testing::TestWithParam<int> {
 protected:
  const testing::GraphCase& Case() const { return kGraphCases[GetParam()]; }
};

TEST_P(SemiExternal, SsspMatchesReferenceAndDefaultEngine) {
  TempDir dir;
  TestDataset t = MakeDataset(Case().make(), dir.Sub("ds"), 4);
  const auto reference = ReferenceSssp(t.graph, 0);

  core::GraphSDEngine semi_engine(*t.dataset, SemiOptions());
  algos::Sssp semi_sssp(0);
  (void)ValueOrDie(semi_engine.Run(semi_sssp));
  ExpectValuesNear(Values(semi_sssp, *semi_engine.state()), reference, 1e-9);

  // Bit-identical to the default engine, not merely within tolerance:
  // monotone min-plus applies commute, so the semi round order cannot
  // change any value.
  core::GraphSDEngine default_engine(*t.dataset, {});
  algos::Sssp default_sssp(0);
  (void)ValueOrDie(default_engine.Run(default_sssp));
  const auto semi_values = Values(semi_sssp, *semi_engine.state());
  const auto default_values = Values(default_sssp, *default_engine.state());
  for (std::size_t v = 0; v < semi_values.size(); ++v) {
    ASSERT_EQ(std::bit_cast<std::uint64_t>(semi_values[v]),
              std::bit_cast<std::uint64_t>(default_values[v]))
        << "vertex " << v;
  }
}

TEST_P(SemiExternal, BfsMatchesReferenceUnderForcedSemiRounds) {
  TempDir dir;
  TestDataset t = MakeDataset(Case().make(), dir.Sub("ds"), 4);
  const auto reference = ReferenceBfs(t.graph, 0);
  core::EngineOptions options = SemiOptions();
  // Force every round semi: no scheduler discretion, the executor itself
  // must be correct on every frontier shape this graph produces.
  options.model_override = [](std::uint32_t) {
    return core::RoundModelChoice::kSemi;
  };
  core::GraphSDEngine engine(*t.dataset, options);
  algos::Bfs bfs(0);
  const auto report = ValueOrDie(engine.Run(bfs));
  EXPECT_EQ(report.semi_rounds, report.rounds);
  for (VertexId v = 0; v < t.graph.num_vertices(); ++v) {
    const std::uint64_t want =
        reference[v] == kUnreachedLevel ? UINT64_MAX : reference[v];
    ASSERT_EQ(algos::Bfs::LevelOf(*engine.state(), v), want) << "vertex " << v;
  }
}

INSTANTIATE_TEST_SUITE_P(Families, SemiExternal, ::testing::Range(0, 6),
                         [](const ::testing::TestParamInfo<int>& info) {
                           return kGraphCases[info.param].name;
                         });

TEST(SemiExternalSkip, SparseFrontierSkipsSubBlocksAndStaysCorrect) {
  // A long path driven from one end keeps the frontier at a single vertex:
  // with P=8 the grid has many sub-blocks whose sources never activate in a
  // given iteration, so the skip summaries must elide real I/O.
  TempDir dir;
  TestDataset t = MakeDataset(testing::MakePathCase(), dir.Sub("ds"), 8);
  const auto reference = ReferenceSssp(t.graph, 0);
  core::EngineOptions options = SemiOptions();
  options.model_override = [](std::uint32_t) {
    return core::RoundModelChoice::kSemi;
  };
  core::GraphSDEngine engine(*t.dataset, options);
  algos::Sssp sssp(0);
  const auto report = ValueOrDie(engine.Run(sssp));
  ExpectValuesNear(Values(sssp, *engine.state()), reference, 1e-9);
  EXPECT_GT(report.semi_rounds, 0u);
  EXPECT_GT(report.blocks_skipped, 0u);
  EXPECT_GT(report.blocks_skipped_bytes, 0u);
}

TEST(SemiExternalSkip, SharedSummariesCarryAcrossRuns) {
  // Registry-style sharing: run one engine to populate the store, then a
  // second engine over the same store. The second run must still be correct
  // and must find the summaries already recorded (no further probes).
  TempDir dir;
  TestDataset t = MakeDataset(testing::MakePathCase(), dir.Sub("ds"), 8);
  const auto reference = ReferenceSssp(t.graph, 0);
  core::SkipSummaryStore store(t.dataset->manifest());

  core::EngineOptions options = SemiOptions();
  options.shared_summaries = &store;
  {
    core::GraphSDEngine engine(*t.dataset, options);
    algos::Sssp sssp(0);
    (void)ValueOrDie(engine.Run(sssp));
  }
  const std::size_t known_after_first = store.known_count();
  EXPECT_GT(known_after_first, 0u);

  core::GraphSDEngine engine(*t.dataset, options);
  algos::Sssp sssp(0);
  const auto report = ValueOrDie(engine.Run(sssp));
  ExpectValuesNear(Values(sssp, *engine.state()), reference, 1e-9);
  EXPECT_EQ(store.known_count(), known_after_first);
  EXPECT_GT(report.blocks_skipped, 0u);
}

TEST(SemiExternalCompressed, BufferHitsOnCompressedDatasetStayCorrect) {
  // Semi rounds over varint-delta frames: streamed blocks are decoded by
  // the loader and offered to the buffer decoded, and later rounds hit
  // them.
  TempDir dir;
  TestDataset t =
      MakeDataset(testing::MakeRmatCase(), dir.Sub("ds"), 4, "varint-delta");
  const auto reference = ReferenceSssp(t.graph, 0);
  core::GraphSDEngine engine(*t.dataset, SemiOptions());
  algos::Sssp sssp(0);
  const auto report = ValueOrDie(engine.Run(sssp));
  ExpectValuesNear(Values(sssp, *engine.state()), reference, 1e-9);
  EXPECT_GT(report.semi_rounds, 0u);
  EXPECT_GT(report.frames_decoded, 0u);
  EXPECT_GT(report.buffer_hits, 0u);
}

TEST(SemiExternalCompressed, BufferHitsServeSameValuesAsRawDataset) {
  // Multi-iteration PageRank-Delta in forced semi rounds, so the second
  // and later iterations hit the buffer, on the same graph stored raw and
  // varint-delta compressed.
  TempDir dir;
  const auto run = [&](const std::string& codec) {
    TestDataset t =
        MakeDataset(testing::MakeWebCase(), dir.Sub("ds_" + codec), 4, codec);
    core::EngineOptions options = SemiOptions();
    options.model_override = [](std::uint32_t) {
      return core::RoundModelChoice::kSemi;
    };
    core::GraphSDEngine engine(*t.dataset, options);
    algos::PageRankDelta prd(1e-10);
    const auto report = ValueOrDie(engine.Run(prd));
    EXPECT_GT(report.buffer_hits, 0u);
    return Values(prd, *engine.state());
  };
  const auto compressed = run("varint-delta");
  const auto raw = run("none");
  // One consumer and one round model: the apply order is identical, so the
  // codec cannot perturb even the floating-point stream.
  ASSERT_EQ(compressed.size(), raw.size());
  for (std::size_t v = 0; v < compressed.size(); ++v) {
    ASSERT_EQ(std::bit_cast<std::uint64_t>(compressed[v]),
              std::bit_cast<std::uint64_t>(raw[v]))
        << "vertex " << v;
  }
}

TEST(SemiExternalAuto, AutoSchedulerMayMixModelsAndStaysCorrect) {
  // Auto mode with semi enabled: the scheduler picks per round among the
  // three models. Whatever it chooses must not change answers.
  TempDir dir;
  TestDataset t = MakeDataset(testing::MakeRmatCase(), dir.Sub("ds"), 4);
  const auto reference = ReferenceSssp(t.graph, 0);
  core::GraphSDEngine engine(*t.dataset, SemiOptions());
  algos::Sssp sssp(0);
  (void)ValueOrDie(engine.Run(sssp));
  ExpectValuesNear(Values(sssp, *engine.state()), reference, 1e-9);
}

}  // namespace
}  // namespace graphsd
