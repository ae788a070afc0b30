// TSan smoke for the concurrency around the serial apply: the loader's
// fetch, frame decode, SCIU checksum verification and the prefetch
// look-ahead, all running next to the one consumer thread that applies
// every pass. Each program runs on a varint-delta dataset with a four-deep
// prefetch, and must reproduce the synchronous (depth 0) run bitwise:
//   * SSSP under each executor — SCIU (on-demand), FCIU (full streaming)
//     and semi-external;
//   * PageRank (gather, two-iteration FCIU), PR-Delta, CC and the batched
//     MultiBfs, covering the accumulate kernel, the float-sum and min-label
//     push kernels and the multi-lane kernel.
// A TSan report here means the loader thread touched state the consumer
// owns. The test names predate serial apply: "EightShards" now means the
// four-deep loader. Registered in tests/CMakeLists.txt as
// tsan_parallel_compute_smoke so the thread-sanitized CI tier covers the
// loader without paying for the full suite.
#include <bit>
#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include <gtest/gtest.h>

#include "algos/multi_source.hpp"
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
    t_ = MakeDataset(GenerateRmat(o), dir_.Sub("ds"), 4, "varint-delta");
    ASSERT_TRUE(t_.dataset->compressed());
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
                              std::size_t prefetch_depth) {
    core::EngineOptions options;
    options.prefetch_depth = prefetch_depth;
    options.semi_external = forced == core::RoundModelChoice::kSemi;
    if (forced != core::RoundModelChoice::kAuto) {
      options.model_override = [forced](std::uint32_t) { return forced; };
    }
    core::GraphSDEngine engine(*t_.dataset, options);
    std::unique_ptr<core::Program> program = make();
    (void)ValueOrDie(engine.Run(*program));
    return AllValues(*program, *engine.state());
  }

  void ExpectLoaderBitIdentical(const ProgramFactory& make,
                                core::RoundModelChoice forced) {
    const std::vector<double> serial = RunWith(make, forced, 0);
    const std::vector<double> prefetched = RunWith(make, forced, 4);
    ASSERT_EQ(prefetched.size(), serial.size());
    for (std::size_t v = 0; v < prefetched.size(); ++v) {
      ASSERT_EQ(std::bit_cast<std::uint64_t>(prefetched[v]),
                std::bit_cast<std::uint64_t>(serial[v]))
          << "value " << v << ": " << prefetched[v] << " vs " << serial[v];
    }
  }

  static std::unique_ptr<core::Program> MakeSssp() {
    return std::make_unique<algos::Sssp>(0);
  }

  TempDir dir_;
  TestDataset t_;
};

TEST_F(ParallelComputeSmoke, SciuEightShardsBitIdentical) {
  ExpectLoaderBitIdentical(MakeSssp, core::RoundModelChoice::kOnDemand);
}

TEST_F(ParallelComputeSmoke, FciuEightShardsBitIdentical) {
  ExpectLoaderBitIdentical(MakeSssp, core::RoundModelChoice::kFull);
}

TEST_F(ParallelComputeSmoke, SemiEightShardsBitIdentical) {
  ExpectLoaderBitIdentical(MakeSssp, core::RoundModelChoice::kSemi);
}

TEST_F(ParallelComputeSmoke, PageRankEightShardsBitIdentical) {
  ExpectLoaderBitIdentical(
      [] { return std::make_unique<algos::PageRank>(4); },
      core::RoundModelChoice::kAuto);
}

TEST_F(ParallelComputeSmoke, PageRankDeltaEightShardsBitIdentical) {
  ExpectLoaderBitIdentical(
      [] {
        return std::make_unique<algos::PageRankDelta>(1e-6, 0.85, 6);
      },
      core::RoundModelChoice::kFull);
}

TEST_F(ParallelComputeSmoke, ConnectedComponentsEightShardsBitIdentical) {
  ExpectLoaderBitIdentical(
      [] { return std::make_unique<algos::ConnectedComponents>(); },
      core::RoundModelChoice::kOnDemand);
}

TEST_F(ParallelComputeSmoke, MultiBfsEightShardsBitIdentical) {
  ExpectLoaderBitIdentical(
      [] {
        return std::make_unique<algos::MultiBfs>(
            std::vector<VertexId>{0, 1, 2, 3});
      },
      core::RoundModelChoice::kFull);
}

}  // namespace
}  // namespace graphsd
