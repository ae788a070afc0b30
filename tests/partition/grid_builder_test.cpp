#include "partition/grid_builder.hpp"

#include <algorithm>
#include <gtest/gtest.h>

#include "graph/generators.hpp"
#include "partition/grid_dataset.hpp"
#include "testing_util.hpp"
#include "util/rng.hpp"

namespace graphsd::partition {
namespace {

using graphsd::testing::BuildTestGrid;
using graphsd::testing::Degrees;
using graphsd::testing::TempDir;
using graphsd::testing::ValueOrDie;

TEST(GridBuilder, ManifestDescribesTheGraph) {
  TempDir dir;
  auto device = io::MakePosixDevice();
  RmatOptions options;
  options.scale = 7;
  options.edge_factor = 4;
  const EdgeList g = GenerateRmat(options);
  const GridManifest m = BuildTestGrid(g, *device, dir.Sub("ds"), 4);
  EXPECT_EQ(m.num_vertices, g.num_vertices());
  EXPECT_EQ(m.num_edges, g.num_edges());
  EXPECT_EQ(m.p, 4u);
  EXPECT_TRUE(m.sorted);
  EXPECT_TRUE(m.has_index);
  EXPECT_OK(m.Validate());
}

// Partitioning invariant: every edge lands in exactly the sub-block its
// endpoints' intervals dictate, and nothing is lost or duplicated.
TEST(GridBuilder, EveryEdgeInExactlyItsSubBlock) {
  TempDir dir;
  auto device = io::MakePosixDevice();
  ErdosRenyiOptions options;
  options.num_vertices = 300;
  options.num_edges = 3000;
  const EdgeList g = GenerateErdosRenyi(options);
  const GridManifest m = BuildTestGrid(g, *device, dir.Sub("ds"), 5);
  const GridDataset dataset =
      ValueOrDie(GridDataset::Open(*device, dir.Sub("ds")));

  std::vector<Edge> recovered;
  for (std::uint32_t i = 0; i < m.p; ++i) {
    for (std::uint32_t j = 0; j < m.p; ++j) {
      const SubBlock block =
          ValueOrDie(dataset.LoadSubBlock(i, j, /*load_weights=*/false));
      for (const Edge& e : block.edges) {
        EXPECT_EQ(IntervalOf(m.boundaries, e.src), i);
        EXPECT_EQ(IntervalOf(m.boundaries, e.dst), j);
      }
      recovered.insert(recovered.end(), block.edges.begin(),
                       block.edges.end());
    }
  }
  auto expected = g.edges();
  std::sort(expected.begin(), expected.end());
  std::sort(recovered.begin(), recovered.end());
  EXPECT_EQ(recovered, expected);
}

TEST(GridBuilder, SubBlocksAreSorted) {
  TempDir dir;
  auto device = io::MakePosixDevice();
  RmatOptions options;
  options.scale = 7;
  const EdgeList g = GenerateRmat(options);
  const GridManifest m = BuildTestGrid(g, *device, dir.Sub("ds"), 3);
  const GridDataset dataset =
      ValueOrDie(GridDataset::Open(*device, dir.Sub("ds")));
  for (std::uint32_t i = 0; i < m.p; ++i) {
    for (std::uint32_t j = 0; j < m.p; ++j) {
      const SubBlock block = ValueOrDie(dataset.LoadSubBlock(i, j, false));
      EXPECT_TRUE(std::is_sorted(block.edges.begin(), block.edges.end()));
    }
  }
}

TEST(GridBuilder, IndexLocatesEveryVertexEdgeRange) {
  TempDir dir;
  auto device = io::MakePosixDevice();
  ErdosRenyiOptions options;
  options.num_vertices = 120;
  options.num_edges = 1500;
  const EdgeList g = GenerateErdosRenyi(options);
  const GridManifest m = BuildTestGrid(g, *device, dir.Sub("ds"), 4);
  const GridDataset dataset =
      ValueOrDie(GridDataset::Open(*device, dir.Sub("ds")));

  for (std::uint32_t i = 0; i < m.p; ++i) {
    for (std::uint32_t j = 0; j < m.p; ++j) {
      const SubBlock block = ValueOrDie(dataset.LoadSubBlock(i, j, false));
      const auto index = ValueOrDie(dataset.LoadIndex(i, j));
      ASSERT_EQ(index.size(), m.IntervalSize(i) + 1);
      EXPECT_EQ(index.front(), 0u);
      EXPECT_EQ(index.back(), block.edges.size());
      const VertexId begin = m.boundaries[i];
      for (VertexId local = 0; local < m.IntervalSize(i); ++local) {
        for (std::uint32_t k = index[local]; k < index[local + 1]; ++k) {
          EXPECT_EQ(block.edges[k].src, begin + local);
        }
      }
    }
  }
}

TEST(GridBuilder, WeightsFollowEdgesThroughPartitioning) {
  TempDir dir;
  auto device = io::MakePosixDevice();
  // Weight = src*1000 + dst lets us verify pairing after the shuffle.
  EdgeList g(50);
  Xoshiro256 rng(3);
  for (int k = 0; k < 400; ++k) {
    const auto s = static_cast<VertexId>(rng.NextBounded(50));
    const auto d = static_cast<VertexId>(rng.NextBounded(50));
    g.AddEdge(s, d, static_cast<Weight>(s * 1000 + d));
  }
  const GridManifest m = BuildTestGrid(g, *device, dir.Sub("ds"), 3);
  const GridDataset dataset =
      ValueOrDie(GridDataset::Open(*device, dir.Sub("ds")));
  for (std::uint32_t i = 0; i < m.p; ++i) {
    for (std::uint32_t j = 0; j < m.p; ++j) {
      const SubBlock block = ValueOrDie(dataset.LoadSubBlock(i, j, true));
      ASSERT_EQ(block.weights.size(), block.edges.size());
      for (std::size_t k = 0; k < block.edges.size(); ++k) {
        EXPECT_FLOAT_EQ(block.weights[k],
                        block.edges[k].src * 1000.0f + block.edges[k].dst);
      }
    }
  }
}

TEST(GridBuilder, AutoChoosesIntervalCountFromBudget) {
  TempDir dir;
  auto device = io::MakePosixDevice();
  RmatOptions options;
  options.scale = 10;
  options.edge_factor = 8;
  const EdgeList g = GenerateRmat(options);
  GridBuildOptions build;
  build.num_intervals = 0;
  build.memory_budget_bytes = g.RawBytes() / 10;
  const GridManifest m =
      ValueOrDie(BuildGrid(g, *device, dir.Sub("ds"), build));
  EXPECT_GT(m.p, 1u);
}

TEST(GridBuilder, UnsortedNoIndexLayout) {
  TempDir dir;
  auto device = io::MakePosixDevice();
  const EdgeList g = GenerateRing(64);
  GridBuildOptions build;
  build.num_intervals = 2;
  build.sort_sub_blocks = false;
  build.build_index = false;
  const GridManifest m =
      ValueOrDie(BuildGrid(g, *device, dir.Sub("ds"), build));
  EXPECT_FALSE(m.sorted);
  EXPECT_FALSE(m.has_index);
  const GridDataset dataset =
      ValueOrDie(GridDataset::Open(*device, dir.Sub("ds")));
  EXPECT_FALSE(dataset.LoadIndex(0, 0).ok());
}

TEST(GridBuilder, IndexWithoutSortIsRejected) {
  TempDir dir;
  auto device = io::MakePosixDevice();
  const EdgeList g = GenerateRing(8);
  GridBuildOptions build;
  build.sort_sub_blocks = false;
  build.build_index = true;
  EXPECT_FALSE(BuildGrid(g, *device, dir.Sub("ds"), build).ok());
}

TEST(GridBuilder, EmptyGraphIsRejected) {
  TempDir dir;
  auto device = io::MakePosixDevice();
  EdgeList g;
  EXPECT_FALSE(BuildGrid(g, *device, dir.Sub("ds"), {}).ok());
}

TEST(GridBuilder, NegativeWeightGraphIsRejected) {
  TempDir dir;
  auto device = io::MakePosixDevice();
  EdgeList g(3);
  g.AddEdge(0, 1, 1.0f);
  g.AddEdge(1, 2, -3.0f);
  const auto result = BuildGrid(g, *device, dir.Sub("ds"), {});
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
}

TEST(GridBuilder, RebuildOverwritesPreviousDataset) {
  TempDir dir;
  auto device = io::MakePosixDevice();
  const EdgeList big = GenerateRing(100);
  BuildTestGrid(big, *device, dir.Sub("ds"), 4);
  const EdgeList small = GenerateRing(10);
  const GridManifest m = BuildTestGrid(small, *device, dir.Sub("ds"), 2);
  const GridDataset dataset =
      ValueOrDie(GridDataset::Open(*device, dir.Sub("ds")));
  EXPECT_EQ(dataset.num_vertices(), 10u);
  EXPECT_EQ(dataset.p(), 2u);
  // Stale sb_3_3 files from the old P=4 layout must be gone.
  EXPECT_FALSE(io::PathExists(SubBlockEdgesPath(dir.Sub("ds"), 3, 3)));
  (void)m;
}

TEST(GridBuilder, DegreeFileMatchesGraph) {
  TempDir dir;
  auto device = io::MakePosixDevice();
  const EdgeList g = GenerateStar(20);
  BuildTestGrid(g, *device, dir.Sub("ds"), 2);
  const GridDataset dataset =
      ValueOrDie(GridDataset::Open(*device, dir.Sub("ds")));
  EXPECT_EQ(Degrees(dataset), g.OutDegrees());
}

}  // namespace
}  // namespace graphsd::partition
