// Ranged index reads: the on-demand model's O(|A|) index access path.
#include <gtest/gtest.h>

#include "graph/generators.hpp"
#include "partition/grid_dataset.hpp"
#include "testing_util.hpp"

namespace graphsd::partition {
namespace {

using graphsd::testing::BuildTestGrid;
using graphsd::testing::TempDir;
using graphsd::testing::ValueOrDie;

class IndexReaderTest : public ::testing::Test {
 protected:
  void SetUp() override {
    device_ = io::MakeSimulatedDevice();
    RmatOptions options;
    options.scale = 8;
    options.edge_factor = 8;
    graph_ = GenerateRmat(options);
    BuildTestGrid(graph_, *device_, dir_.Sub("ds"), 4);
    dataset_ = std::make_unique<GridDataset>(
        ValueOrDie(GridDataset::Open(*device_, dir_.Sub("ds"))));
  }

  TempDir dir_;
  std::unique_ptr<io::Device> device_;
  EdgeList graph_;
  std::unique_ptr<GridDataset> dataset_;
};

TEST_F(IndexReaderTest, RangedReadsMatchFullIndex) {
  const auto full = ValueOrDie(dataset_->LoadIndex(1, 2));
  IndexReader reader = ValueOrDie(dataset_->OpenIndexReader(1, 2));
  std::vector<std::uint32_t> out;
  // Whole-range read.
  ASSERT_OK(reader.ReadOffsets(0, static_cast<VertexId>(full.size()), out));
  EXPECT_EQ(out, std::vector<std::uint32_t>(full.begin(), full.end()));
  // Various sub-ranges.
  for (const auto& [first, count] :
       {std::pair<VertexId, VertexId>{0, 1},
        {5, 10},
        {static_cast<VertexId>(full.size() - 3), 3}}) {
    ASSERT_OK(reader.ReadOffsets(first, count, out));
    ASSERT_EQ(out.size(), count);
    for (VertexId k = 0; k < count; ++k) {
      EXPECT_EQ(out[k], full[first + k]) << first << "+" << k;
    }
  }
}

TEST_F(IndexReaderTest, ZeroCountIsNoOp) {
  IndexReader reader = ValueOrDie(dataset_->OpenIndexReader(0, 0));
  std::vector<std::uint32_t> out = {1, 2, 3};
  ASSERT_OK(reader.ReadOffsets(0, 0, out));
  EXPECT_TRUE(out.empty());  // resized to count
}

TEST_F(IndexReaderTest, ChargesOnlyRangedBytes) {
  device_->ResetAccounting();
  IndexReader reader = ValueOrDie(dataset_->OpenIndexReader(2, 1));
  std::vector<std::uint32_t> out;
  ASSERT_OK(reader.ReadOffsets(3, 5, out));
  const auto stats = device_->stats().Snapshot();
  EXPECT_EQ(stats.TotalReadBytes(), 5 * sizeof(std::uint32_t));
  EXPECT_EQ(stats.rand_read_ops, 1u);
}

TEST_F(IndexReaderTest, ConsecutiveRangesClassifySequential) {
  device_->ResetAccounting();
  IndexReader reader = ValueOrDie(dataset_->OpenIndexReader(2, 1));
  std::vector<std::uint32_t> out;
  ASSERT_OK(reader.ReadOffsets(0, 4, out));
  ASSERT_OK(reader.ReadOffsets(4, 4, out));  // continues where prior ended
  const auto stats = device_->stats().Snapshot();
  EXPECT_EQ(stats.rand_read_ops, 1u);
  EXPECT_EQ(stats.seq_read_ops, 1u);
}

TEST_F(IndexReaderTest, MissingIndexIsNotFound) {
  TempDir dir2;
  GridBuildOptions build;
  build.num_intervals = 2;
  build.sort_sub_blocks = false;
  build.build_index = false;
  (void)ValueOrDie(BuildGrid(graph_, *device_, dir2.Sub("ds"), build));
  const auto ds = ValueOrDie(GridDataset::Open(*device_, dir2.Sub("ds")));
  const auto result = ds.OpenIndexReader(0, 0);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kNotFound);
}

}  // namespace
}  // namespace graphsd::partition
