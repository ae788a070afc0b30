#include "partition/grid_dataset.hpp"

#include <gtest/gtest.h>

#include "graph/generators.hpp"
#include "testing_util.hpp"

namespace graphsd::partition {
namespace {

using graphsd::testing::BuildTestGrid;
using graphsd::testing::Degrees;
using graphsd::testing::TempDir;
using graphsd::testing::ValueOrDie;

class GridDatasetTest : public ::testing::Test {
 protected:
  void SetUp() override {
    device_ = io::MakePosixDevice();
    RmatOptions options;
    options.scale = 7;
    options.edge_factor = 6;
    options.max_weight = 10.0;
    graph_ = GenerateRmat(options);
    manifest_ = BuildTestGrid(graph_, *device_, dir_.Sub("ds"), 4);
  }

  TempDir dir_;
  std::unique_ptr<io::Device> device_;
  EdgeList graph_;
  GridManifest manifest_;
};

TEST_F(GridDatasetTest, OpenExposesMetadata) {
  const GridDataset ds = ValueOrDie(GridDataset::Open(*device_, dir_.Sub("ds")));
  EXPECT_EQ(ds.num_vertices(), graph_.num_vertices());
  EXPECT_EQ(ds.num_edges(), graph_.num_edges());
  EXPECT_EQ(ds.p(), 4u);
  EXPECT_TRUE(ds.weighted());
  EXPECT_EQ(Degrees(ds), graph_.OutDegrees());
}

TEST_F(GridDatasetTest, OpenMissingDirectoryFails) {
  EXPECT_FALSE(GridDataset::Open(*device_, dir_.Sub("nope")).ok());
}

TEST_F(GridDatasetTest, LoadSubBlockWithAndWithoutWeights) {
  const GridDataset ds = ValueOrDie(GridDataset::Open(*device_, dir_.Sub("ds")));
  const SubBlock plain = ValueOrDie(ds.LoadSubBlock(0, 0, false));
  EXPECT_TRUE(plain.weights.empty());
  const SubBlock weighted = ValueOrDie(ds.LoadSubBlock(0, 0, true));
  EXPECT_EQ(weighted.weights.size(), weighted.edges.size());
  EXPECT_EQ(plain.edges, weighted.edges);
}

TEST_F(GridDatasetTest, SubBlockBytesTracksWeightChoice) {
  const GridDataset ds = ValueOrDie(GridDataset::Open(*device_, dir_.Sub("ds")));
  const auto count = manifest_.EdgesIn(1, 2);
  EXPECT_EQ(ds.SubBlockBytes(1, 2, false), count * kEdgeBytes);
  EXPECT_EQ(ds.SubBlockBytes(1, 2, true), count * (kEdgeBytes + kWeightBytes));
}

TEST_F(GridDatasetTest, SelectiveRangeReadMatchesFullLoad) {
  const GridDataset ds = ValueOrDie(GridDataset::Open(*device_, dir_.Sub("ds")));
  const SubBlock full = ValueOrDie(ds.LoadSubBlock(1, 1, true));
  if (full.edges.size() < 4) GTEST_SKIP() << "sub-block too small";

  SubBlockReader reader = ValueOrDie(ds.OpenSubBlockReader(1, 1, true));
  std::vector<Edge> edges;
  std::vector<Weight> weights;
  ASSERT_OK(reader.ReadRange(1, 2, edges, &weights));
  ASSERT_EQ(edges.size(), 2u);
  EXPECT_EQ(edges[0], full.edges[1]);
  EXPECT_EQ(edges[1], full.edges[2]);
  EXPECT_FLOAT_EQ(weights[0], full.weights[1]);

  // Appending a second range keeps earlier data.
  ASSERT_OK(reader.ReadRange(0, 1, edges, &weights));
  ASSERT_EQ(edges.size(), 3u);
  EXPECT_EQ(edges[2], full.edges[0]);
}

TEST_F(GridDatasetTest, ZeroCountRangeReadIsNoOp) {
  const GridDataset ds = ValueOrDie(GridDataset::Open(*device_, dir_.Sub("ds")));
  SubBlockReader reader = ValueOrDie(ds.OpenSubBlockReader(0, 0, false));
  std::vector<Edge> edges;
  ASSERT_OK(reader.ReadRange(0, 0, edges, nullptr));
  EXPECT_TRUE(edges.empty());
}

TEST_F(GridDatasetTest, ReadRunsMatchesReadRangeLoopOnEveryBackend) {
  // The batched path (real:ssd-style gap merging) must produce exactly what
  // the per-run loop produces — same edges, same weights, same order.
  const GridDataset ds = ValueOrDie(GridDataset::Open(*device_, dir_.Sub("ds")));
  const SubBlock full = ValueOrDie(ds.LoadSubBlock(1, 1, true));
  if (full.edges.size() < 10) GTEST_SKIP() << "sub-block too small";
  const std::uint64_t n = full.edges.size();
  const std::vector<std::pair<std::uint64_t, std::uint64_t>> runs = {
      {0, 2}, {3, 4}, {6, n - 1}, {n - 1, n}};

  std::vector<Edge> looped;
  std::vector<Weight> looped_w;
  {
    SubBlockReader reader = ValueOrDie(ds.OpenSubBlockReader(1, 1, true));
    for (const auto& [first, end] : runs) {
      ASSERT_OK(reader.ReadRange(first, end - first, looped, &looped_w));
    }
  }
  for (const char* kind : {"posix", "real:ssd"}) {
    auto device = ValueOrDie(io::MakeDeviceForKind(kind));
    const GridDataset batched_ds =
        ValueOrDie(GridDataset::Open(*device, dir_.Sub("ds")));
    SubBlockReader reader =
        ValueOrDie(batched_ds.OpenSubBlockReader(1, 1, true));
    std::vector<Edge> edges;
    std::vector<Weight> weights;
    ASSERT_OK(reader.ReadRuns(runs, edges, &weights));
    EXPECT_EQ(edges, looped) << kind;
    EXPECT_EQ(weights, looped_w) << kind;
  }
}

TEST_F(GridDatasetTest, ReadRunsMergesGapsIntoFewerRequests) {
  auto sim = io::MakeSimulatedDevice();
  // Force batching on a simulated device (sim profiles default it off) to
  // observe the request-count collapse deterministically.
  const GridDataset probe = ValueOrDie(GridDataset::Open(*sim, dir_.Sub("ds")));
  const SubBlock full = ValueOrDie(probe.LoadSubBlock(1, 1, false));
  if (full.edges.size() < 10) GTEST_SKIP() << "sub-block too small";
  const std::uint64_t n = full.edges.size();
  const std::vector<std::pair<std::uint64_t, std::uint64_t>> runs = {
      {0, 2}, {4, 6}, {8, n}};

  io::DeviceOptions opts;
  opts.charge_virtual_time = false;
  opts.read_batch_gap_bytes = 64;  // gaps of 2 edges merge comfortably
  io::Device merged(opts);
  const GridDataset ds = ValueOrDie(GridDataset::Open(merged, dir_.Sub("ds")));
  merged.ResetAccounting();
  SubBlockReader reader = ValueOrDie(ds.OpenSubBlockReader(1, 1, false));
  std::vector<Edge> edges;
  ASSERT_OK(reader.ReadRuns(runs, edges, nullptr));
  const auto s = merged.stats().Snapshot();
  EXPECT_EQ(s.rand_read_ops + s.seq_read_ops, 1u);  // one merged request
  EXPECT_EQ(s.vectored_reads, 1u);
  // All bytes from first run start to block end crossed the bus, gaps
  // included.
  EXPECT_EQ(s.TotalReadBytes(), n * sizeof(Edge));
  // Gap bytes are discarded: the output holds only the requested runs.
  std::vector<Edge> expected;
  for (const auto& [first, end] : runs) {
    expected.insert(expected.end(), full.edges.begin() + first,
                    full.edges.begin() + end);
  }
  EXPECT_EQ(edges, expected);
}

TEST_F(GridDatasetTest, ReadRunsRejectsNonAscendingScript) {
  const GridDataset ds = ValueOrDie(GridDataset::Open(*device_, dir_.Sub("ds")));
  SubBlockReader reader = ValueOrDie(ds.OpenSubBlockReader(1, 1, false));
  std::vector<Edge> edges;
  const std::vector<std::pair<std::uint64_t, std::uint64_t>> overlapping = {
      {0, 4}, {2, 6}};
  EXPECT_EQ(reader.ReadRuns(overlapping, edges, nullptr).code(),
            StatusCode::kCorruptData);
  const std::vector<std::pair<std::uint64_t, std::uint64_t>> out_of_range = {
      {0, manifest_.EdgesIn(1, 1) + 1}};
  EXPECT_EQ(reader.ReadRuns(out_of_range, edges, nullptr).code(),
            StatusCode::kCorruptData);
  EXPECT_TRUE(edges.empty());
}

TEST_F(GridDatasetTest, IndexAgreesWithEdgeContents) {
  const GridDataset ds = ValueOrDie(GridDataset::Open(*device_, dir_.Sub("ds")));
  const auto index = ValueOrDie(ds.LoadIndex(2, 3));
  const SubBlock block = ValueOrDie(ds.LoadSubBlock(2, 3, false));
  EXPECT_EQ(index.back(), block.edges.size());
  // Per-vertex ranges reconstruct the whole block in order.
  SubBlockReader reader = ValueOrDie(ds.OpenSubBlockReader(2, 3, false));
  std::vector<Edge> rebuilt;
  for (std::size_t local = 0; local + 1 < index.size(); ++local) {
    ASSERT_OK(reader.ReadRange(index[local], index[local + 1] - index[local],
                               rebuilt, nullptr));
  }
  EXPECT_EQ(rebuilt, std::vector<Edge>(block.edges.begin(), block.edges.end()));
}

TEST_F(GridDatasetTest, FullSubBlockLoadChargesOneSeekThenStreams) {
  auto sim = io::MakeSimulatedDevice();
  // Re-open through a simulated device to observe classification.
  const GridDataset ds = ValueOrDie(GridDataset::Open(*sim, dir_.Sub("ds")));
  sim->ResetAccounting();
  const SubBlock block = ValueOrDie(ds.LoadSubBlock(0, 1, false));
  if (block.edges.empty()) GTEST_SKIP();
  const auto stats = sim->stats().Snapshot();
  EXPECT_EQ(stats.rand_read_ops, 1u);  // one positioned read for the block
  EXPECT_EQ(stats.TotalReadBytes(), block.edges.size() * sizeof(Edge));
}

// real:ssd reads every payload file O_DIRECT straight into its pooled
// buffer: a file whose size is not a 4 KiB multiple ends in a partial block
// that lands in the buffer's padding, with no bounce and no byte accounted
// beyond the file's logical size.
TEST_F(GridDatasetTest, RealSsdReadsPaddedTailWithoutBounce) {
  const GridDataset posix =
      ValueOrDie(GridDataset::Open(*device_, dir_.Sub("ds")));
  auto ssd = ValueOrDie(io::MakeDeviceForKind("real:ssd"));
  const GridDataset direct = ValueOrDie(GridDataset::Open(*ssd, dir_.Sub("ds")));
  EXPECT_EQ(Degrees(direct), Degrees(posix));
  ssd->ResetAccounting();
  std::uint64_t bytes = 0;
  bool partial_tail = false;
  for (std::uint32_t i = 0; i < manifest_.p; ++i) {
    for (std::uint32_t j = 0; j < manifest_.p; ++j) {
      const SubBlock want = ValueOrDie(posix.LoadSubBlock(i, j, true));
      const SubBlock got = ValueOrDie(direct.LoadSubBlock(i, j, true));
      EXPECT_EQ(got.edges, want.edges) << i << "," << j;
      EXPECT_EQ(got.weights, want.weights) << i << "," << j;
      bytes += got.SizeBytes();
      partial_tail = partial_tail ||
                     got.edges.size_bytes() % kDirectIoAlignment != 0;
    }
  }
  EXPECT_TRUE(partial_tail);
  const io::IoStatsSnapshot s = ssd->stats().Snapshot();
  EXPECT_EQ(s.TotalReadBytes(), bytes);
  EXPECT_EQ(s.bounce_reads, 0u);
}

// A payload file shorter than its manifest size is a short read on every
// device, even when the missing bytes fall inside the final 4 KiB block
// that a direct read covers anyway.
TEST_F(GridDatasetTest, TruncatedSubBlockFileFailsOnEveryDevice) {
  std::uint32_t bi = 0;
  std::uint32_t bj = 0;
  for (std::uint32_t i = 0; i < manifest_.p; ++i) {
    for (std::uint32_t j = 0; j < manifest_.p; ++j) {
      if (manifest_.EdgesIn(i, j) > manifest_.EdgesIn(bi, bj)) {
        bi = i;
        bj = j;
      }
    }
  }
  const std::string path = SubBlockEdgesPath(dir_.Sub("ds"), bi, bj);
  {
    io::File file = ValueOrDie(io::File::Open(path, io::OpenMode::kReadWrite));
    ASSERT_OK(file.Truncate(manifest_.EdgeFileBytes(bi, bj) - sizeof(Edge)));
  }
  for (const std::string kind : {"posix", "real:ssd"}) {
    SCOPED_TRACE(kind);
    auto device = ValueOrDie(io::MakeDeviceForKind(kind));
    const GridDataset ds = ValueOrDie(GridDataset::Open(*device, dir_.Sub("ds")));
    const Result<SubBlock> block = ds.LoadSubBlock(bi, bj, false);
    ASSERT_FALSE(block.ok());
    EXPECT_EQ(block.status().code(), StatusCode::kIoError);
  }
}

}  // namespace
}  // namespace graphsd::partition
