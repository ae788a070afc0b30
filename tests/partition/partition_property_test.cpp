// Property sweep over the 2-D partitioner: the structural invariants of
// the paper's §3.2 representation must hold for every graph family ×
// interval scheme × interval count × weightedness.
#include <algorithm>
#include <tuple>

#include <gtest/gtest.h>

#include "graph/generators.hpp"
#include "partition/grid_dataset.hpp"
#include "testing_util.hpp"

namespace graphsd::partition {
namespace {

using graphsd::testing::Degrees;
using graphsd::testing::TempDir;
using graphsd::testing::ValueOrDie;

struct FamilyCase {
  const char* name;
  EdgeList (*make)(bool weighted);
};

EdgeList MakeRmat(bool weighted) {
  RmatOptions o;
  o.scale = 7;
  o.edge_factor = 5;
  o.max_weight = weighted ? 9.0 : 0.0;
  return GenerateRmat(o);
}
EdgeList MakeWeb(bool weighted) {
  WebGraphOptions o;
  o.num_vertices = 256;
  o.avg_degree = 6;
  o.whisker_fraction = 0.2;
  o.whisker_length = 8;
  o.max_weight = weighted ? 9.0 : 0.0;
  return GenerateWebGraph(o);
}
EdgeList MakeStarCase(bool weighted) {
  return GenerateStar(200, weighted ? 2.0 : 0.0);
}
EdgeList MakePathCase(bool weighted) {
  return GeneratePath(150, weighted ? 1.0 : 0.0);
}

const FamilyCase kFamilies[] = {
    {"rmat", MakeRmat},
    {"web", MakeWeb},
    {"star", MakeStarCase},
    {"path", MakePathCase},
};

using Param = std::tuple<int, std::uint32_t, int, bool>;  // family, P, scheme, weighted

class PartitionProperty : public ::testing::TestWithParam<Param> {};

TEST_P(PartitionProperty, AllInvariantsHold) {
  const auto [family_index, p, scheme_index, weighted] = GetParam();
  const FamilyCase& family = kFamilies[family_index];
  const EdgeList graph = family.make(weighted);

  TempDir dir;
  auto device = io::MakePosixDevice();
  GridBuildOptions build;
  build.num_intervals = p;
  build.scheme = scheme_index == 0 ? IntervalScheme::kEqualVertices
                                   : IntervalScheme::kBalancedEdges;
  const GridManifest manifest =
      ValueOrDie(BuildGrid(graph, *device, dir.Sub("ds"), build));
  const GridDataset dataset =
      ValueOrDie(GridDataset::Open(*device, dir.Sub("ds")));

  // Invariant 1: the manifest validates and matches the graph.
  ASSERT_OK(manifest.Validate());
  EXPECT_EQ(manifest.num_vertices, graph.num_vertices());
  EXPECT_EQ(manifest.num_edges, graph.num_edges());
  EXPECT_EQ(manifest.weighted, weighted);

  // Invariant 2: degrees file is the graph's out-degrees.
  EXPECT_EQ(Degrees(dataset), graph.OutDegrees());

  // Invariant 3: every edge lands in exactly the sub-block its endpoint
  // intervals dictate; nothing lost, nothing duplicated, weights attached.
  std::vector<Edge> recovered;
  std::vector<std::pair<Edge, Weight>> recovered_weighted;
  for (std::uint32_t i = 0; i < manifest.p; ++i) {
    for (std::uint32_t j = 0; j < manifest.p; ++j) {
      const SubBlock block =
          ValueOrDie(dataset.LoadSubBlock(i, j, weighted));
      ASSERT_EQ(block.edges.size(), manifest.EdgesIn(i, j));
      // Invariant 4: sorted by (src, dst).
      EXPECT_TRUE(std::is_sorted(block.edges.begin(), block.edges.end()));
      for (std::size_t k = 0; k < block.edges.size(); ++k) {
        const Edge& e = block.edges[k];
        EXPECT_EQ(IntervalOf(manifest.boundaries, e.src), i);
        EXPECT_EQ(IntervalOf(manifest.boundaries, e.dst), j);
        recovered.push_back(e);
        if (weighted) recovered_weighted.emplace_back(e, block.weights[k]);
      }
      // Invariant 5: the index reconstructs per-vertex ranges exactly.
      const auto index = ValueOrDie(dataset.LoadIndex(i, j));
      ASSERT_EQ(index.size(), manifest.IntervalSize(i) + 1);
      EXPECT_EQ(index.front(), 0u);
      EXPECT_EQ(index.back(), block.edges.size());
      for (VertexId local = 0; local + 1 < index.size(); ++local) {
        ASSERT_LE(index[local], index[local + 1]);
        for (std::uint32_t k = index[local]; k < index[local + 1]; ++k) {
          EXPECT_EQ(block.edges[k].src, manifest.boundaries[i] + local);
        }
      }
    }
  }
  auto expected = graph.edges();
  std::sort(expected.begin(), expected.end());
  std::sort(recovered.begin(), recovered.end());
  EXPECT_EQ(recovered, expected);

  // Invariant 6: weights still pair with their edges. Build the expected
  // multiset from the input.
  if (weighted) {
    std::vector<std::pair<Edge, Weight>> expected_weighted;
    for (std::uint64_t k = 0; k < graph.num_edges(); ++k) {
      expected_weighted.emplace_back(graph.edges()[k], graph.weights()[k]);
    }
    auto by_edge_then_weight = [](const std::pair<Edge, Weight>& a,
                                  const std::pair<Edge, Weight>& b) {
      if (a.first == b.first) return a.second < b.second;
      return a.first < b.first;
    };
    std::sort(expected_weighted.begin(), expected_weighted.end(),
              by_edge_then_weight);
    std::sort(recovered_weighted.begin(), recovered_weighted.end(),
              by_edge_then_weight);
    EXPECT_EQ(recovered_weighted, expected_weighted);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, PartitionProperty,
    ::testing::Combine(::testing::Range(0, 4),            // family
                       ::testing::Values(1u, 3u, 7u),     // P
                       ::testing::Values(0, 1),           // scheme
                       ::testing::Bool()),                // weighted
    [](const ::testing::TestParamInfo<Param>& info) {
      // No structured bindings here: commas inside [] are not protected
      // from the INSTANTIATE macro's argument splitting.
      return std::string(kFamilies[std::get<0>(info.param)].name) + "_p" +
             std::to_string(std::get<1>(info.param)) +
             (std::get<2>(info.param) == 0 ? "_equal" : "_balanced") +
             (std::get<3>(info.param) ? "_weighted" : "_plain");
    });

}  // namespace
}  // namespace graphsd::partition
