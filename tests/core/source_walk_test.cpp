// The active-source walk (core/program.hpp): a filtered pass whose edges
// ascend by src may jump over inactive sources, but must hand `fn` exactly
// the edges, in exactly the order, of the linear per-edge loop.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <tuple>
#include <vector>

#include "core/program.hpp"
#include "util/rng.hpp"

namespace graphsd::core {
namespace {

// Not a multiple of 64, so the frontier's last word is partial.
constexpr VertexId kVertices = 5000;
// The spans' sources lie in [kSrcBegin, kSrcEnd); frontiers also activate
// vertices below and past them.
constexpr VertexId kSrcBegin = 1100;
constexpr VertexId kSrcEnd = 3300;
// The passes' destination range; destinations fall on both sides of it.
constexpr VertexId kDstBegin = 1500;
constexpr VertexId kDstEnd = 2600;

using Call = std::tuple<VertexId, VertexId, Weight>;

struct Span {
  std::vector<Edge> edges;
  std::vector<Weight> weights;
};

/// A span sorted by (src, dst): each vertex of [kSrcBegin, kSrcEnd) is a
/// source with probability `source_fraction`, with 1 to
/// 2·`edges_per_source` edges to random destinations.
Span MakeSortedSpan(Xoshiro256& rng, double source_fraction,
                    std::uint32_t edges_per_source) {
  Span span;
  for (VertexId src = kSrcBegin; src < kSrcEnd; ++src) {
    if (rng.NextDouble() >= source_fraction) continue;
    const std::uint32_t degree =
        1 + static_cast<std::uint32_t>(rng.NextBounded(2 * edges_per_source));
    for (std::uint32_t d = 0; d < degree; ++d) {
      span.edges.push_back(
          Edge{src, static_cast<VertexId>(rng.NextBounded(kVertices))});
    }
  }
  std::sort(span.edges.begin(), span.edges.end());
  for (std::size_t k = 0; k < span.edges.size(); ++k) {
    span.weights.push_back(static_cast<Weight>(k % 97) + 0.5f);
  }
  return span;
}

/// A frontier over kVertices with about `density` of them active, either
/// independently at random or in runs of up to 200 consecutive vertices.
Frontier MakeFrontier(Xoshiro256& rng, double density, bool clustered) {
  Frontier frontier(kVertices);
  if (!clustered) {
    for (VertexId v = 0; v < kVertices; ++v) {
      if (rng.NextDouble() < density) frontier.Activate(v);
    }
    return frontier;
  }
  const auto target = static_cast<std::uint64_t>(density * kVertices);
  std::uint64_t count = 0;
  while (count < target) {
    const VertexId start = static_cast<VertexId>(rng.NextBounded(kVertices));
    const VertexId length = 1 + static_cast<VertexId>(rng.NextBounded(200));
    for (VertexId v = start; v < std::min(kVertices, start + length); ++v) {
      if (count >= target) break;
      if (frontier.Activate(v)) ++count;
    }
  }
  return frontier;
}

/// Runs `pass` with the given sortedness, recording every call.
std::vector<Call> Calls(ApplyPass pass, bool sorted_by_src,
                        std::uint64_t* applied) {
  pass.sorted_by_src = sorted_by_src;
  std::vector<Call> calls;
  *applied = ForEachPassEdge(pass, [&](VertexId src, VertexId dst, Weight w) {
    calls.emplace_back(src, dst, w);
  });
  return calls;
}

std::uint64_t BruteForceCount(const std::vector<Edge>& edges,
                              const Frontier& sources) {
  std::uint64_t count = 0;
  for (const Edge& edge : edges) count += sources.IsActive(edge.src) ? 1 : 0;
  return count;
}

/// Checks the walk against the linear loop, weighted and not, and the
/// counting walk against a brute-force count.
void ExpectWalkMatchesLinear(const Span& span, const Frontier& sources) {
  for (const bool weighted : {false, true}) {
    SCOPED_TRACE(weighted ? "weighted" : "unweighted");
    ApplyPass pass = EdgePass(span.edges, span.weights, weighted, kDstBegin,
                              kDstEnd);
    pass.sources = &sources;
    std::uint64_t linear_applied = 0;
    std::uint64_t walk_applied = 0;
    const std::vector<Call> linear = Calls(pass, false, &linear_applied);
    const std::vector<Call> walk = Calls(pass, true, &walk_applied);
    EXPECT_EQ(walk_applied, linear_applied);
    EXPECT_EQ(walk_applied, walk.size());
    ASSERT_EQ(walk.size(), linear.size());
    EXPECT_TRUE(walk == linear);
  }
  const std::uint64_t want = BruteForceCount(span.edges, sources);
  EXPECT_EQ(CountActiveSourceEdges(span.edges, sources, true), want);
  EXPECT_EQ(CountActiveSourceEdges(span.edges, sources, false), want);
}

struct Shape {
  const char* name;
  double source_fraction;
  std::uint32_t edges_per_source;
};

// A diagonal-like block (every source, many edges each) and off-diagonal
// ones (sparse sources with about one edge each).
constexpr Shape kShapes[] = {
    {"diagonal", 1.0, 24},
    {"off-diagonal", 0.5, 1},
    {"sparse", 0.05, 2},
};

constexpr double kDensities[] = {0.001, 0.01, 0.1, 0.5, 1.0};

TEST(ActiveSourceWalk, MatchesLinearLoopAcrossFrontierDensities) {
  Xoshiro256 rng(27001);
  for (const Shape& shape : kShapes) {
    SCOPED_TRACE(shape.name);
    const Span span =
        MakeSortedSpan(rng, shape.source_fraction, shape.edges_per_source);
    ASSERT_FALSE(span.edges.empty());
    for (const double density : kDensities) {
      for (const bool clustered : {false, true}) {
        SCOPED_TRACE(std::to_string(density) +
                     (clustered ? " clustered" : " random"));
        const Frontier sources = MakeFrontier(rng, density, clustered);
        ExpectWalkMatchesLinear(span, sources);
      }
    }
  }
}

TEST(ActiveSourceWalk, EmptyAndSingleVertexFrontiers) {
  Xoshiro256 rng(27002);
  const Span span = MakeSortedSpan(rng, 0.5, 1);
  const Frontier empty(kVertices);
  ExpectWalkMatchesLinear(span, empty);
  // One vertex: the span's first, middle and last sources, and vertices
  // before and past the span.
  const std::vector<VertexId> singles = {span.edges.front().src,
                                         span.edges.back().src,
                                         span.edges[span.edges.size() / 2].src,
                                         kSrcBegin - 1,
                                         kSrcEnd,
                                         kVertices - 1,
                                         0};
  for (const VertexId v : singles) {
    SCOPED_TRACE(v);
    Frontier single(kVertices);
    single.Activate(v);
    ExpectWalkMatchesLinear(span, single);
  }
}

TEST(ActiveSourceWalk, ActiveVerticesOnlyOutsideTheSpan) {
  Xoshiro256 rng(27003);
  const Span span = MakeSortedSpan(rng, 1.0, 3);
  Frontier outside(kVertices);
  for (VertexId v = 0; v < kSrcBegin; v += 3) outside.Activate(v);
  for (VertexId v = kSrcEnd; v < kVertices; v += 2) outside.Activate(v);
  ExpectWalkMatchesLinear(span, outside);
  std::uint64_t applied = 0;
  ApplyPass pass = EdgePass(span.edges, span.weights, false, 0, kVertices);
  pass.sources = &outside;
  EXPECT_TRUE(Calls(pass, true, &applied).empty());
  EXPECT_EQ(applied, 0u);
}

TEST(ActiveSourceWalk, LongRunsOfOneSourceAndEmptySpans) {
  // Runs longer than the probe length, both active and inactive, and a
  // jump target past the last edge.
  Span span;
  for (const VertexId src : {7u, 8u, 64u, 65u, 127u, 128u, 4999u}) {
    for (VertexId d = 0; d < 40; ++d) {
      span.edges.push_back(Edge{src, static_cast<VertexId>(kDstBegin + d)});
      span.weights.push_back(static_cast<Weight>(d));
    }
  }
  for (const std::vector<VertexId>& active :
       std::vector<std::vector<VertexId>>{
           {8}, {7, 128}, {65}, {4999}, {0, 4999}, {9, 66, 200}}) {
    Frontier sources(kVertices);
    for (const VertexId v : active) sources.Activate(v);
    ExpectWalkMatchesLinear(span, sources);
  }
  const Span empty;
  Frontier all(kVertices);
  all.ActivateAll();
  ExpectWalkMatchesLinear(empty, all);
}

}  // namespace
}  // namespace graphsd::core
