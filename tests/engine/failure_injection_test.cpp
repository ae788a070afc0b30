// Failure injection: corrupted or truncated datasets must surface clean
// errors, never crashes or silent wrong answers.
#include <gtest/gtest.h>

#include "engine_test_util.hpp"
#include "partition/manifest.hpp"

namespace graphsd {
namespace {

using testing::MakeDataset;
using testing::TempDir;
using testing::TestDataset;
using testing::ValueOrDie;

class FailureInjectionTest : public ::testing::Test {
 protected:
  void SetUp() override {
    RmatOptions o;
    o.scale = 7;
    o.edge_factor = 6;
    o.max_weight = 5.0;
    t_ = MakeDataset(GenerateRmat(o), dir_.Sub("ds"), 3);
    ds_dir_ = dir_.Sub("ds");
  }

  /// Re-opens the dataset after tampering; may fail (that is the test).
  Result<partition::GridDataset> Reopen() {
    return partition::GridDataset::Open(*t_.device, ds_dir_);
  }

  Status Tamper(const std::string& path, const std::string& contents) {
    return io::WriteStringToFile(path, contents);
  }

  TempDir dir_;
  TestDataset t_;
  std::string ds_dir_;
};

TEST_F(FailureInjectionTest, MissingManifest) {
  ASSERT_OK(io::RemoveFile(partition::ManifestPath(ds_dir_)));
  EXPECT_FALSE(Reopen().ok());
}

TEST_F(FailureInjectionTest, GarbageManifest) {
  ASSERT_OK(Tamper(partition::ManifestPath(ds_dir_), "not a manifest at all"));
  const auto result = Reopen();
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kCorruptData);
}

TEST_F(FailureInjectionTest, ManifestWithLyingEdgeCounts) {
  // Parse the real manifest, inflate one sub-block count, re-serialize.
  const std::string text =
      ValueOrDie(io::ReadFileToString(partition::ManifestPath(ds_dir_)));
  partition::GridManifest manifest =
      ValueOrDie(partition::GridManifest::Parse(text));
  manifest.sub_block_edges[0] += 7;  // breaks the total
  ASSERT_OK(Tamper(partition::ManifestPath(ds_dir_), manifest.Serialize()));
  EXPECT_FALSE(Reopen().ok());
}

TEST_F(FailureInjectionTest, TruncatedSubBlockFileFailsTheRun) {
  // Find a non-empty sub-block and chop its edge file in half.
  const auto& manifest = t_.dataset->manifest();
  for (std::uint32_t i = 0; i < manifest.p; ++i) {
    for (std::uint32_t j = 0; j < manifest.p; ++j) {
      if (manifest.EdgesIn(i, j) < 2) continue;
      const std::string path = partition::SubBlockEdgesPath(ds_dir_, i, j);
      const std::string data = ValueOrDie(io::ReadFileToString(path));
      ASSERT_OK(Tamper(path, data.substr(0, data.size() / 2)));
      core::GraphSDEngine engine(*t_.dataset, {});
      algos::Bfs bfs(0);
      const auto result = engine.Run(bfs);
      EXPECT_FALSE(result.ok());
      EXPECT_EQ(result.status().code(), StatusCode::kIoError);
      return;
    }
  }
  FAIL() << "no non-empty sub-block found";
}

TEST_F(FailureInjectionTest, MissingSubBlockFileFailsTheRun) {
  const auto& manifest = t_.dataset->manifest();
  for (std::uint32_t i = 0; i < manifest.p; ++i) {
    for (std::uint32_t j = 0; j < manifest.p; ++j) {
      if (manifest.EdgesIn(i, j) == 0) continue;
      ASSERT_OK(io::RemoveFile(partition::SubBlockEdgesPath(ds_dir_, i, j)));
      core::GraphSDEngine engine(*t_.dataset, {});
      algos::Bfs bfs(0);
      EXPECT_FALSE(engine.Run(bfs).ok());
      return;
    }
  }
  FAIL() << "no non-empty sub-block found";
}

TEST_F(FailureInjectionTest, MissingIndexDegradesToFullStreaming) {
  core::EngineOptions options;
  options.force_on_demand = true;

  // Baseline values on the intact dataset.
  std::vector<double> want;
  {
    core::GraphSDEngine engine(*t_.dataset, options);
    algos::Sssp sssp(0);
    ASSERT_OK(engine.Run(sssp).status());
    want = testing::Values(sssp, *engine.state());
  }

  // Remove every index file: the first on-demand round fails, the engine
  // falls back to full streaming (which needs no index), and the run still
  // completes with identical results.
  const auto& manifest = t_.dataset->manifest();
  for (std::uint32_t i = 0; i < manifest.p; ++i) {
    for (std::uint32_t j = 0; j < manifest.p; ++j) {
      ASSERT_OK(io::RemoveFile(partition::SubBlockIndexPath(ds_dir_, i, j)));
    }
  }
  core::GraphSDEngine engine(*t_.dataset, options);
  algos::Sssp sssp(0);
  const auto result = engine.Run(sssp);
  ASSERT_OK(result.status());
  EXPECT_GE(ValueOrDie(result).degraded_rounds, 1u);
  testing::ExpectValuesNear(testing::Values(sssp, *engine.state()), want,
                            1e-12);
}

TEST_F(FailureInjectionTest, UnwritableScratchDirFailsCleanly) {
  core::EngineOptions options;
  options.scratch_dir = "/nonexistent/scratch";
  core::GraphSDEngine engine(*t_.dataset, options);
  algos::Bfs bfs(0);
  const auto result = engine.Run(bfs);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kNotFound);
}

TEST_F(FailureInjectionTest, ShortDegreesFileFailsOpen) {
  const std::string path = partition::DegreesPath(ds_dir_);
  const std::string data = ValueOrDie(io::ReadFileToString(path));
  ASSERT_OK(Tamper(path, data.substr(0, data.size() / 2)));
  EXPECT_FALSE(Reopen().ok());
}

TEST_F(FailureInjectionTest, BoundaryTamperingRejected) {
  const std::string text =
      ValueOrDie(io::ReadFileToString(partition::ManifestPath(ds_dir_)));
  partition::GridManifest manifest =
      ValueOrDie(partition::GridManifest::Parse(text));
  manifest.boundaries[1] = manifest.boundaries[2];  // empty interval
  ASSERT_OK(Tamper(partition::ManifestPath(ds_dir_), manifest.Serialize()));
  EXPECT_FALSE(Reopen().ok());
}

}  // namespace
}  // namespace graphsd
