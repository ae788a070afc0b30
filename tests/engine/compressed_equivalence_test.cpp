// Compression equivalence: extends the prefetch-equivalence sweep with
// compression-on configurations. A varint-delta dataset must be invisible
// in results — bit-identical values against the raw sync reference across
// SCIU/FCIU forcing and prefetch depths {0, 1, 4} — while the run report
// shows the codec at work (frames decoded, compressed vs decoded bytes)
// and the scheduler logs its decisions against on-disk byte counts.
//
// As in the prefetch sweep, every compressed configuration runs traced
// with metrics attached while the raw reference runs untraced, so the
// comparison also proves observability and compression never feed back
// into values.
#include <cstdint>
#include <optional>
#include <vector>

#include <gtest/gtest.h>

#include "engine_test_util.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

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
  bool overlap;
};

// At depth > 0 the loader fetches and decodes beside the consumer, while
// every comparison stays bitwise against the synchronous reference.
constexpr PrefetchConfig kConfigs[] = {
    {"sync_serial", 0, false},   {"sync_overlap_flag", 0, true},
    {"depth1_serial", 1, false}, {"depth1_overlap", 1, true},
    {"depth4_serial", 4, false}, {"depth4_overlap", 4, true},
};

struct RunObservation {
  std::vector<double> values;
  io::IoStatsSnapshot io;
  std::uint32_t iterations = 0;
  std::uint64_t rounds = 0;
  core::ExecutionReport report;
};

core::EngineOptions WithConfig(core::EngineOptions options,
                               const PrefetchConfig& config) {
  options.prefetch_depth = config.depth;
  options.overlap_io = config.overlap;
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
  return obs;
}

void ExpectSameIo(const io::IoStatsSnapshot& got,
                  const io::IoStatsSnapshot& want) {
  EXPECT_EQ(got.seq_read_bytes, want.seq_read_bytes);
  EXPECT_EQ(got.rand_read_bytes, want.rand_read_bytes);
  EXPECT_EQ(got.seq_read_ops, want.seq_read_ops);
  EXPECT_EQ(got.rand_read_ops, want.rand_read_ops);
  EXPECT_EQ(got.retries, want.retries);
  EXPECT_EQ(got.checksum_failures, want.checksum_failures);
}

std::uint64_t ReadBytes(const io::IoStatsSnapshot& io) {
  return io.seq_read_bytes + io.rand_read_bytes;
}

/// The compression counters every compressed run must report.
void ExpectCompressionReported(const core::ExecutionReport& report) {
  EXPECT_EQ(report.codec, "varint-delta");
  EXPECT_GT(report.frames_decoded, 0u);
  EXPECT_GT(report.compressed_bytes_read, 0u);
  EXPECT_GT(report.decoded_bytes, 0u);
  EXPECT_GE(report.decode_seconds, 0.0);
}

/// Sweeps `make_program()` on the compressed dataset across every prefetch
/// configuration, comparing values bitwise against the raw sync reference
/// and I/O bytes across the compressed runs themselves.
template <typename MakeProgram>
void SweepCompressedConfigs(const TestDataset& raw, const TestDataset& comp,
                            const core::EngineOptions& base,
                            MakeProgram make_program) {
  const RunObservation reference =
      Observe(raw, WithConfig(base, kConfigs[0]), make_program());
  EXPECT_EQ(reference.report.codec, "none");
  EXPECT_EQ(reference.report.frames_decoded, 0u);

  std::optional<RunObservation> comp_reference;
  for (const PrefetchConfig& config : kConfigs) {
    SCOPED_TRACE(config.name);
    core::EngineOptions options = WithConfig(base, config);
    obs::TraceBuffer trace;
    obs::MetricsRegistry metrics;
    options.trace = &trace;
    options.metrics = &metrics;
    const RunObservation obs = Observe(comp, options, make_program());
    EXPECT_GT(trace.event_count(), 0u);

    // Decode must be lossless end to end: same values, same BSP structure.
    ExpectValuesBitIdentical(obs.values, reference.values);
    EXPECT_EQ(obs.iterations, reference.iterations);
    EXPECT_EQ(obs.rounds, reference.rounds);
    ExpectCompressionReported(obs.report);
    EXPECT_EQ(obs.io.checksum_failures, 0u);

    // Prefetch depth must not change what a compressed run reads.
    if (!comp_reference.has_value()) {
      comp_reference = obs;
      continue;
    }
    ExpectSameIo(obs.io, comp_reference->io);
    EXPECT_EQ(obs.report.frames_decoded, comp_reference->report.frames_decoded);
    EXPECT_EQ(obs.report.compressed_bytes_read,
              comp_reference->report.compressed_bytes_read);
    EXPECT_EQ(obs.report.decoded_bytes, comp_reference->report.decoded_bytes);
    EXPECT_NEAR(obs.report.io_seconds, comp_reference->report.io_seconds,
                1e-9 * comp_reference->report.io_seconds + 1e-12);
  }
}

class CompressedEquivalence : public ::testing::TestWithParam<int> {
 protected:
  const testing::GraphCase& Case() const { return kGraphCases[GetParam()]; }

  /// Builds the same graph twice: raw reference and varint-delta layout.
  void BuildBoth() {
    raw_ = MakeDataset(Case().make(), dir_.Sub("raw"), 4);
    comp_ = MakeDataset(Case().make(), dir_.Sub("comp"), 4, "varint-delta");
  }

  TempDir dir_;
  TestDataset raw_;
  TestDataset comp_;
};

TEST_P(CompressedEquivalence, SsspForcedOnDemand) {
  BuildBoth();
  core::EngineOptions base;
  base.force_on_demand = true;  // SCIU whole-frame on-demand path
  SweepCompressedConfigs(raw_, comp_, base, [] { return algos::Sssp(0); });
}

TEST_P(CompressedEquivalence, BfsFullStreamingOnly) {
  BuildBoth();
  core::EngineOptions base;
  base.enable_selective = false;  // FCIU fetch+decode pipeline
  SweepCompressedConfigs(raw_, comp_, base, [] { return algos::Bfs(0); });

  // Full streaming moves strictly fewer on-disk bytes from the compressed
  // layout — the Figure 7 traffic reduction, asserted end to end here.
  core::EngineOptions sync = WithConfig(base, kConfigs[0]);
  const RunObservation raw_obs = Observe(raw_, sync, algos::Bfs(0));
  const RunObservation comp_obs = Observe(comp_, sync, algos::Bfs(0));
  EXPECT_LT(ReadBytes(comp_obs.io), ReadBytes(raw_obs.io));
}

TEST_P(CompressedEquivalence, PageRankGatherPath) {
  BuildBoth();
  SweepCompressedConfigs(raw_, comp_, {}, [] { return algos::PageRank(6); });
}

TEST_P(CompressedEquivalence, SsspDefaultSchedulerSerialCharging) {
  // Under serial charging the scheduler's compressed-cost decisions are
  // deterministic (no measured-compute feedback), so the three serial
  // depths must agree with each other on everything; values must match
  // the raw reference bitwise even though the round mix — and with it the
  // iteration count, since FCIU rounds cover two BSP iterations — may
  // differ from the raw dataset's (the costs legitimately change with
  // the layout).
  BuildBoth();
  const RunObservation reference =
      Observe(raw_, WithConfig({}, kConfigs[0]), algos::Sssp(0));
  std::optional<RunObservation> comp_reference;
  for (const PrefetchConfig& config : kConfigs) {
    if (config.overlap) continue;
    SCOPED_TRACE(config.name);
    const RunObservation obs =
        Observe(comp_, WithConfig({}, config), algos::Sssp(0));
    ExpectValuesBitIdentical(obs.values, reference.values);
    ExpectCompressionReported(obs.report);

    // Every scheduled round logged its decision against on-disk bytes.
    ASSERT_FALSE(obs.report.per_round.empty());
    for (const core::RoundStat& round : obs.report.per_round) {
      if (round.model == core::RoundModel::kSkipped) continue;
      EXPECT_GT(round.cost_full, 0.0);
      EXPECT_GT(round.cost_on_demand, 0.0);
    }

    if (!comp_reference.has_value()) {
      comp_reference = obs;
      continue;
    }
    ExpectSameIo(obs.io, comp_reference->io);
    EXPECT_EQ(obs.rounds, comp_reference->rounds);
    EXPECT_EQ(obs.iterations, comp_reference->iterations);
  }
}

INSTANTIATE_TEST_SUITE_P(Families, CompressedEquivalence,
                         ::testing::Range(0, 6),
                         [](const ::testing::TestParamInfo<int>& info) {
                           return kGraphCases[info.param].name;
                         });

}  // namespace
}  // namespace graphsd
