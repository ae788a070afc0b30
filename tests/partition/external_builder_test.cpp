// The out-of-core builder must produce a dataset byte-equivalent to the
// in-memory builder's under bounded memory.
#include <cmath>
#include <cstring>

#include <gtest/gtest.h>

#include "algos/sssp.hpp"
#include "core/engine.hpp"
#include "graph/edge_io.hpp"
#include "io/file.hpp"
#include "graph/reference_algorithms.hpp"
#include "graph/generators.hpp"
#include "partition/external_builder.hpp"
#include "partition/grid_dataset.hpp"
#include "testing_util.hpp"

namespace graphsd::partition {
namespace {

using graphsd::testing::Degrees;
using graphsd::testing::TempDir;
using graphsd::testing::ValueOrDie;

class ExternalBuilderTest : public ::testing::TestWithParam<bool> {
 protected:
  void SetUp() override {
    device_ = io::MakePosixDevice();
    RmatOptions options;
    options.scale = 8;
    options.edge_factor = 6;
    if (GetParam()) options.max_weight = 10.0;  // weighted variant
    graph_ = GenerateRmat(options);
    raw_path_ = dir_.Sub("raw.bin");
    ASSERT_OK(WriteBinaryEdgeList(graph_, *device_, raw_path_));
  }

  TempDir dir_;
  std::unique_ptr<io::Device> device_;
  EdgeList graph_;
  std::string raw_path_;
};

TEST_P(ExternalBuilderTest, MatchesInMemoryBuilderExactly) {
  // In-memory reference dataset.
  GridBuildOptions in_memory;
  in_memory.num_intervals = 4;
  in_memory.name = "g";
  (void)ValueOrDie(BuildGrid(graph_, *device_, dir_.Sub("mem"), in_memory));

  // Externally built dataset with aggressively small buffers to force many
  // spill flushes and input chunks.
  ExternalBuildOptions external;
  external.num_intervals = 4;
  external.name = "g";
  external.spill_buffer_bytes = 128;   // ~10 edges per flush
  external.input_chunk_edges = 97;     // non-round chunking
  const GridManifest manifest = ValueOrDie(
      BuildGridExternal(raw_path_, *device_, dir_.Sub("ext"), external));

  const GridDataset mem_ds =
      ValueOrDie(GridDataset::Open(*device_, dir_.Sub("mem")));
  const GridDataset ext_ds =
      ValueOrDie(GridDataset::Open(*device_, dir_.Sub("ext")));

  EXPECT_EQ(ext_ds.manifest().Serialize(), mem_ds.manifest().Serialize());
  EXPECT_EQ(Degrees(ext_ds), Degrees(mem_ds));
  for (std::uint32_t i = 0; i < manifest.p; ++i) {
    for (std::uint32_t j = 0; j < manifest.p; ++j) {
      const SubBlock a = ValueOrDie(ext_ds.LoadSubBlock(i, j, true));
      const SubBlock b = ValueOrDie(mem_ds.LoadSubBlock(i, j, true));
      EXPECT_EQ(a.edges, b.edges) << "sub-block " << i << "," << j;
      EXPECT_EQ(a.weights, b.weights) << "sub-block " << i << "," << j;
      if (manifest.has_index) {
        EXPECT_EQ(ValueOrDie(ext_ds.LoadIndex(i, j)),
                  ValueOrDie(mem_ds.LoadIndex(i, j)));
      }
    }
  }
}

TEST_P(ExternalBuilderTest, SpillFilesAreCleanedUp) {
  ExternalBuildOptions external;
  external.num_intervals = 3;
  (void)ValueOrDie(
      BuildGridExternal(raw_path_, *device_, dir_.Sub("ext"), external));
  for (std::uint32_t i = 0; i < 3; ++i) {
    for (std::uint32_t j = 0; j < 3; ++j) {
      EXPECT_FALSE(io::PathExists(dir_.Sub("ext") + "/spill_" +
                                  std::to_string(i) + "_" +
                                  std::to_string(j) + ".edges"));
    }
  }
}

INSTANTIATE_TEST_SUITE_P(WeightedAndNot, ExternalBuilderTest,
                         ::testing::Bool(),
                         [](const ::testing::TestParamInfo<bool>& info) {
                           return info.param ? "weighted" : "unweighted";
                         });

TEST(ExternalBuilder, MissingInputFails) {
  TempDir dir;
  auto device = io::MakePosixDevice();
  EXPECT_FALSE(
      BuildGridExternal(dir.Sub("missing.bin"), *device, dir.Sub("out"), {})
          .ok());
}

TEST(ExternalBuilder, CorruptInputFails) {
  TempDir dir;
  auto device = io::MakePosixDevice();
  ASSERT_OK(io::WriteStringToFile(dir.Sub("bad.bin"), std::string(64, 'z')));
  const auto result =
      BuildGridExternal(dir.Sub("bad.bin"), *device, dir.Sub("out"), {});
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kCorruptData);
}

// Weight validation at load: the raw file passed the writer's checks, then
// a weight was corrupted on disk. The builder must reject it before
// committing any dataset bytes, with the same contract as
// EdgeList::Validate (finite, nonnegative).
TEST(ExternalBuilder, CorruptedWeightOnDiskIsRejected) {
  TempDir dir;
  auto device = io::MakePosixDevice();
  EdgeList g(3);
  g.AddEdge(0, 1, 1.0f);
  g.AddEdge(1, 2, 2.0f);
  g.AddEdge(2, 0, 3.0f);
  const std::string raw = dir.Sub("raw.bin");
  ASSERT_OK(graphsd::WriteBinaryEdgeList(g, *device, raw));

  // Weights are the trailing num_edges * sizeof(Weight) bytes; overwrite
  // the last one with -1.0f.
  std::string bytes = ValueOrDie(io::ReadFileToString(raw));
  const float negative = -1.0f;
  std::memcpy(bytes.data() + bytes.size() - sizeof(float), &negative,
              sizeof(float));
  ASSERT_OK(io::WriteStringToFile(raw, bytes));

  ExternalBuildOptions external;
  external.num_intervals = 2;
  const auto result =
      BuildGridExternal(raw, *device, dir.Sub("out"), external);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(result.status().ToString().find("negative"), std::string::npos);
}

TEST(ExternalBuilder, AutoChoosesIntervalCount) {
  TempDir dir;
  auto device = io::MakePosixDevice();
  RmatOptions options;
  options.scale = 10;
  options.edge_factor = 8;
  const EdgeList g = GenerateRmat(options);
  ASSERT_OK(WriteBinaryEdgeList(g, *device, dir.Sub("raw.bin")));
  ExternalBuildOptions external;
  external.memory_budget_bytes = g.RawBytes() / 10;
  const auto manifest = ValueOrDie(
      BuildGridExternal(dir.Sub("raw.bin"), *device, dir.Sub("out"), external));
  EXPECT_GT(manifest.p, 1u);
}

// The engine runs unchanged on an externally built dataset.
TEST(ExternalBuilder, EngineRunsOnExternalDataset) {
  TempDir dir;
  auto device = io::MakeSimulatedDevice(io::IoCostModel::ScaledHdd());
  RmatOptions options;
  options.scale = 8;
  options.max_weight = 5.0;
  const EdgeList g = GenerateRmat(options);
  ASSERT_OK(WriteBinaryEdgeList(g, *device, dir.Sub("raw.bin")));
  ExternalBuildOptions external;
  external.num_intervals = 4;
  (void)ValueOrDie(
      BuildGridExternal(dir.Sub("raw.bin"), *device, dir.Sub("ds"), external));
  const auto ds = ValueOrDie(GridDataset::Open(*device, dir.Sub("ds")));

  const auto reference = ReferenceSssp(g, 0);
  core::GraphSDEngine engine(ds, {});
  algos::Sssp sssp(0);
  (void)ValueOrDie(engine.Run(sssp));
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    const double got = sssp.ValueOf(*engine.state(), v);
    if (std::isinf(reference[v])) {
      EXPECT_TRUE(std::isinf(got));
    } else {
      EXPECT_NEAR(got, reference[v], 1e-9);
    }
  }
}

}  // namespace
}  // namespace graphsd::partition
