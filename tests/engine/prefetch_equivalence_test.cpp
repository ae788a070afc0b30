// Prefetch-pipeline equivalence: the asynchronous loader must be invisible
// in everything except wall-clock time. Across prefetch depths every run
// must produce bit-identical values, move exactly the
// same virtual-I/O bytes and ops, and handle injected faults exactly like
// the synchronous path (retries absorbed, degradations taken on the same
// round).
//
// The sweep doubles as the observability invariance proof: every
// non-reference configuration runs with a TraceBuffer and MetricsRegistry
// attached while the reference runs untraced, so any feedback from the
// observability layer into bytes, scheduler decisions or values fails the
// comparison.
#include <cstdint>
#include <optional>
#include <vector>

#include <gtest/gtest.h>

#include "engine_test_util.hpp"
#include "io/fault_injector.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "partition/manifest.hpp"

namespace graphsd {
namespace {

using testing::ExpectValuesBitIdentical;
using testing::kGraphCases;
using testing::MakeDataset;
using testing::TempDir;
using testing::TestDataset;
using testing::Values;
using testing::ValueOrDie;

struct PrefetchConfig {
  const char* name;
  std::size_t depth;
};

// The first entry is the reference: fully synchronous, one thread. The
// others run a loader thread beside the consumer; values stay bit-identical
// and byte traffic identical at every depth.
constexpr PrefetchConfig kConfigs[] = {
    {"sync", 0},
    {"depth1", 1},
    {"depth4", 4},
};

/// Everything a run exposes that prefetching must not change.
struct RunObservation {
  std::vector<double> values;
  io::IoStatsSnapshot io;
  std::uint32_t iterations = 0;
  std::uint64_t rounds = 0;
  std::uint64_t degraded_rounds = 0;
  core::ExecutionReport report;
};

core::EngineOptions WithConfig(core::EngineOptions options,
                               const PrefetchConfig& config) {
  options.prefetch_depth = config.depth;
  return options;
}

template <typename Program>
RunObservation Observe(const TestDataset& t, const core::EngineOptions& options,
                       Program program) {
  RunObservation obs;
  const io::IoStatsSnapshot before = t.device->stats().Snapshot();
  core::GraphSDEngine engine(*t.dataset, options);
  obs.report = ValueOrDie(engine.Run(program));
  obs.io = t.device->stats().Snapshot() - before;
  obs.values = Values(program, *engine.state());
  obs.iterations = obs.report.iterations;
  obs.rounds = obs.report.rounds;
  obs.degraded_rounds = obs.report.degraded_rounds;
  return obs;
}

void ExpectSameIo(const io::IoStatsSnapshot& got,
                  const io::IoStatsSnapshot& want) {
  EXPECT_EQ(got.seq_read_bytes, want.seq_read_bytes);
  EXPECT_EQ(got.rand_read_bytes, want.rand_read_bytes);
  EXPECT_EQ(got.seq_write_bytes, want.seq_write_bytes);
  EXPECT_EQ(got.rand_write_bytes, want.rand_write_bytes);
  EXPECT_EQ(got.seq_read_ops, want.seq_read_ops);
  EXPECT_EQ(got.rand_read_ops, want.rand_read_ops);
  EXPECT_EQ(got.seq_write_ops, want.seq_write_ops);
  EXPECT_EQ(got.rand_write_ops, want.rand_write_ops);
  EXPECT_EQ(got.retries, want.retries);
  EXPECT_EQ(got.checksum_failures, want.checksum_failures);
}

void ExpectSameObservation(const RunObservation& got,
                           const RunObservation& want) {
  ExpectValuesBitIdentical(got.values, want.values);
  ExpectSameIo(got.io, want.io);
  EXPECT_EQ(got.iterations, want.iterations);
  EXPECT_EQ(got.rounds, want.rounds);
  EXPECT_EQ(got.degraded_rounds, want.degraded_rounds);
}

/// Runs `make_program()` under every prefetch configuration and checks each
/// against the synchronous reference run. The reference runs untraced; all
/// other configurations run with observability attached, so the comparison
/// also proves tracing and metrics never feed back into the run.
template <typename MakeProgram>
void SweepConfigs(const TestDataset& t, const core::EngineOptions& base,
                  MakeProgram make_program) {
  std::optional<RunObservation> reference;
  for (const PrefetchConfig& config : kConfigs) {
    SCOPED_TRACE(config.name);
    core::EngineOptions options = WithConfig(base, config);
    obs::TraceBuffer trace;
    obs::MetricsRegistry metrics;
    if (reference.has_value()) {
      options.trace = &trace;
      options.metrics = &metrics;
    }
    RunObservation obs = Observe(t, options, make_program());
    if (!reference.has_value()) {
      reference = std::move(obs);
      continue;
    }
    // Observability was on for this run: it must have recorded something
    // (every run has at least a schedule-decision span per round) ...
    EXPECT_GT(trace.event_count(), 0u);
    EXPECT_GT(metrics.size(), 0u);
    // ... and changed nothing the reference run can see.
    ExpectSameObservation(obs, *reference);
    // Modeled I/O time is virtual and must match the reference run (up to
    // summation rounding); compute time is wall clock and may not.
    EXPECT_NEAR(obs.report.io_seconds, reference->report.io_seconds,
                1e-9 * reference->report.io_seconds + 1e-12);
  }
}

class PrefetchEquivalence : public ::testing::TestWithParam<int> {
 protected:
  const testing::GraphCase& Case() const { return kGraphCases[GetParam()]; }
};

TEST_P(PrefetchEquivalence, SsspDefaultSchedulerMix) {
  TempDir dir;
  TestDataset t = MakeDataset(Case().make(), dir.Sub("ds"), 4);
  SweepConfigs(t, {}, [] { return algos::Sssp(0); });
}

TEST_P(PrefetchEquivalence, SsspForcedOnDemand) {
  TempDir dir;
  TestDataset t = MakeDataset(Case().make(), dir.Sub("ds"), 4);
  core::EngineOptions base;
  base.force_on_demand = true;  // SCIU ranged-read prefetch path
  SweepConfigs(t, base, [] { return algos::Sssp(0); });
}

TEST_P(PrefetchEquivalence, BfsFullStreamingOnly) {
  TempDir dir;
  TestDataset t = MakeDataset(Case().make(), dir.Sub("ds"), 4);
  core::EngineOptions base;
  base.enable_selective = false;  // FCIU double-buffered prefetch path
  SweepConfigs(t, base, [] { return algos::Bfs(0); });
}

TEST_P(PrefetchEquivalence, PageRankGatherPath) {
  TempDir dir;
  TestDataset t = MakeDataset(Case().make(), dir.Sub("ds"), 4);
  SweepConfigs(t, {}, [] { return algos::PageRank(6); });
}

TEST_P(PrefetchEquivalence, PageRankDeltaDefault) {
  TempDir dir;
  TestDataset t = MakeDataset(Case().make(), dir.Sub("ds"), 4);
  SweepConfigs(t, {}, [] { return algos::PageRankDelta(1e-12); });
}

TEST_P(PrefetchEquivalence, ConnectedComponentsSymmetrized) {
  TempDir dir;
  TestDataset t = MakeDataset(Symmetrize(Case().make()), dir.Sub("ds"), 4);
  SweepConfigs(t, {}, [] { return algos::ConnectedComponents(); });
}

INSTANTIATE_TEST_SUITE_P(Families, PrefetchEquivalence, ::testing::Range(0, 6),
                         [](const ::testing::TestParamInfo<int>& info) {
                           return kGraphCases[info.param].name;
                         });

// A transient read fault on a prefetched block must be retried on the
// loader thread exactly as the synchronous path retries it inline: same
// values, same retry count, same byte traffic.
class PrefetchFaultParity : public ::testing::Test {
 protected:
  void SetUp() override {
    RmatOptions o;
    o.scale = 7;
    o.edge_factor = 6;
    o.max_weight = 5.0;
    t_ = MakeDataset(GenerateRmat(o), dir_.Sub("ds"), 3);
    ds_dir_ = dir_.Sub("ds");
  }

  void TearDown() override { t_.device->set_fault_injector(nullptr); }

  /// Path of the first sub-block edge file with at least one edge.
  std::string FirstNonEmptyEdgesPath() const {
    const auto& manifest = t_.dataset->manifest();
    for (std::uint32_t i = 0; i < manifest.p; ++i) {
      for (std::uint32_t j = 0; j < manifest.p; ++j) {
        if (manifest.EdgesIn(i, j) != 0) {
          return partition::SubBlockEdgesPath(ds_dir_, i, j);
        }
      }
    }
    ADD_FAILURE() << "no non-empty sub-block found";
    return {};
  }

  TempDir dir_;
  TestDataset t_;
  std::string ds_dir_;
};

TEST_F(PrefetchFaultParity, TransientReadFaultRetriedIdentically) {
  core::EngineOptions base;
  base.enable_selective = false;  // keep the whole run on prefetched FCIU
  const auto run = [&](const PrefetchConfig& config) {
    return Observe(t_, WithConfig(base, config), algos::Sssp(0));
  };
  const RunObservation clean = run(kConfigs[0]);

  // The rule fires on the first read of one specific edge file. The filter
  // is per-path because only the per-path read order is an invariant of the
  // pipeline; the global interleaving of reads and state writes is not.
  io::FaultInjector injector(/*seed=*/7);
  io::FaultRule rule;
  rule.kind = io::FaultKind::kEio;
  rule.op = io::FaultOp::kRead;
  rule.path_substring = FirstNonEmptyEdgesPath();
  rule.nth = 1;
  rule.max_fires = 1;
  injector.AddRule(rule);
  t_.device->set_fault_injector(&injector);

  std::optional<RunObservation> faulted_sync;
  for (const PrefetchConfig& config : kConfigs) {
    SCOPED_TRACE(config.name);
    injector.Reset();
    const RunObservation obs = run(config);
    // The fault fired and the retry absorbed it: results match the clean
    // run bitwise, and the traffic differs from it only by the retried op.
    EXPECT_EQ(injector.faults_injected(), 1u);
    EXPECT_GE(obs.io.retries, 1u);
    ExpectValuesBitIdentical(obs.values, clean.values);
    if (!faulted_sync.has_value()) {
      faulted_sync = obs;
      continue;
    }
    ExpectSameObservation(obs, *faulted_sync);
  }
}

TEST_F(PrefetchFaultParity, MissingIndexDegradesIdenticallyAcrossDepths) {
  core::EngineOptions base;
  base.force_on_demand = true;
  const auto& manifest = t_.dataset->manifest();
  for (std::uint32_t i = 0; i < manifest.p; ++i) {
    for (std::uint32_t j = 0; j < manifest.p; ++j) {
      ASSERT_OK(io::RemoveFile(partition::SubBlockIndexPath(ds_dir_, i, j)));
    }
  }
  std::optional<RunObservation> reference;
  for (const PrefetchConfig& config : kConfigs) {
    SCOPED_TRACE(config.name);
    const RunObservation obs =
        Observe(t_, WithConfig(base, config), algos::Sssp(0));
    EXPECT_GE(obs.degraded_rounds, 1u);
    if (!reference.has_value()) {
      reference = obs;
      continue;
    }
    ExpectSameObservation(obs, *reference);
  }
}

}  // namespace
}  // namespace graphsd
