// TSan smoke for the sharded parallel compute path. Each program runs with
// eight worker threads and eight destination shards and must reproduce the
// single-threaded run bitwise:
//   * SSSP under each executor — SCIU (on-demand), FCIU (full streaming)
//     and semi-external — which also drives the decode offload and the
//     checksum preverify concurrently;
//   * PageRank (gather, two-iteration FCIU), PR-Delta, CC and the batched
//     MultiBfs, covering the accumulate kernel, the float-sum and min-label
//     push kernels and the multi-lane kernel.
// Every program combines with plain loads and stores under the
// single-writer rule (core/program.hpp), so a TSan report here means two
// shards wrote one destination. The graph is large enough that the biggest
// sub-blocks exceed kParallelGrain and really fan out. Registered in
// tests/CMakeLists.txt as tsan_parallel_compute_smoke so the
// thread-sanitized CI tier covers the compute fan-out without paying for
// the full suite.
#include <algorithm>
#include <bit>
#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include <gtest/gtest.h>

#include "algos/multi_source.hpp"
#include "core/sharded_apply.hpp"
#include "engine_test_util.hpp"

namespace graphsd {
namespace {

using testing::MakeDataset;
using testing::TempDir;
using testing::TestDataset;
using testing::ValueOrDie;

class ParallelComputeSmoke : public ::testing::Test {
 protected:
  using ProgramFactory = std::function<std::unique_ptr<core::Program>()>;

  void SetUp() override {
    RmatOptions o;
    o.scale = 13;
    o.edge_factor = 16;
    o.max_weight = 10.0;
    t_ = MakeDataset(GenerateRmat(o), dir_.Sub("ds"), 2);
    // The sharded path only runs on blocks above the grain.
    const auto& manifest = t_.dataset->manifest();
    std::uint64_t largest = 0;
    for (std::uint32_t i = 0; i < manifest.p; ++i) {
      for (std::uint32_t j = 0; j < manifest.p; ++j) {
        largest = std::max<std::uint64_t>(largest, manifest.EdgesIn(i, j));
      }
    }
    ASSERT_GT(largest, core::kParallelGrain);
  }

  /// Every value of every lane (one lane for solo programs).
  static std::vector<double> AllValues(const core::Program& program,
                                       const core::VertexState& state) {
    std::vector<double> out;
    const auto* multi = dynamic_cast<const algos::MultiSourceProgram*>(&program);
    const std::uint32_t lanes = multi != nullptr ? multi->lanes() : 1;
    for (std::uint32_t k = 0; k < lanes; ++k) {
      for (VertexId v = 0; v < state.num_vertices(); ++v) {
        out.push_back(multi != nullptr ? multi->LaneValueOf(state, k, v)
                                       : program.ValueOf(state, v));
      }
    }
    return out;
  }

  std::vector<double> RunWith(const ProgramFactory& make,
                              core::RoundModelChoice forced,
                              std::size_t threads) {
    core::EngineOptions options;
    options.num_threads = threads;
    options.compute_threads = threads;
    options.semi_external = forced == core::RoundModelChoice::kSemi;
    if (forced != core::RoundModelChoice::kAuto) {
      options.model_override = [forced](std::uint32_t) { return forced; };
    }
    core::GraphSDEngine engine(*t_.dataset, options);
    std::unique_ptr<core::Program> program = make();
    (void)ValueOrDie(engine.Run(*program));
    return AllValues(*program, *engine.state());
  }

  void ExpectEightShardsBitIdentical(const ProgramFactory& make,
                                     core::RoundModelChoice forced) {
    const std::vector<double> serial = RunWith(make, forced, 1);
    const std::vector<double> sharded = RunWith(make, forced, 8);
    ASSERT_EQ(sharded.size(), serial.size());
    for (std::size_t v = 0; v < sharded.size(); ++v) {
      ASSERT_EQ(std::bit_cast<std::uint64_t>(sharded[v]),
                std::bit_cast<std::uint64_t>(serial[v]))
          << "value " << v << ": " << sharded[v] << " vs " << serial[v];
    }
  }

  static std::unique_ptr<core::Program> MakeSssp() {
    return std::make_unique<algos::Sssp>(0);
  }

  TempDir dir_;
  TestDataset t_;
};

TEST_F(ParallelComputeSmoke, SciuEightShardsBitIdentical) {
  ExpectEightShardsBitIdentical(MakeSssp, core::RoundModelChoice::kOnDemand);
}

TEST_F(ParallelComputeSmoke, FciuEightShardsBitIdentical) {
  ExpectEightShardsBitIdentical(MakeSssp, core::RoundModelChoice::kFull);
}

TEST_F(ParallelComputeSmoke, SemiEightShardsBitIdentical) {
  ExpectEightShardsBitIdentical(MakeSssp, core::RoundModelChoice::kSemi);
}

TEST_F(ParallelComputeSmoke, PageRankEightShardsBitIdentical) {
  ExpectEightShardsBitIdentical(
      [] { return std::make_unique<algos::PageRank>(4); },
      core::RoundModelChoice::kAuto);
}

TEST_F(ParallelComputeSmoke, PageRankDeltaEightShardsBitIdentical) {
  ExpectEightShardsBitIdentical(
      [] {
        return std::make_unique<algos::PageRankDelta>(1e-6, 0.85, 6);
      },
      core::RoundModelChoice::kFull);
}

TEST_F(ParallelComputeSmoke, ConnectedComponentsEightShardsBitIdentical) {
  ExpectEightShardsBitIdentical(
      [] { return std::make_unique<algos::ConnectedComponents>(); },
      core::RoundModelChoice::kOnDemand);
}

TEST_F(ParallelComputeSmoke, MultiBfsEightShardsBitIdentical) {
  ExpectEightShardsBitIdentical(
      [] {
        return std::make_unique<algos::MultiBfs>(
            std::vector<VertexId>{0, 1, 2, 3});
      },
      core::RoundModelChoice::kFull);
}

}  // namespace
}  // namespace graphsd
