// Bounded-seed differential smoke: the tier-1 face of the randomized
// harness. Fixed seeds keep it deterministic and fast (< 30 s); the
// unbounded soak lives in ctest's `soak` configuration
// (tools/CMakeLists.txt).
#include "testing/difftest.hpp"

#include <gtest/gtest.h>

#include "graph/generators.hpp"
#include "io/file.hpp"
#include "testing/artifact.hpp"
#include "testing/graph_cases.hpp"
#include "testing/temp_dir.hpp"
#include "testing_util.hpp"

namespace graphsd::testing {
namespace {

// The acceptance bar: >= 200 randomized (graph, config) combinations with
// zero divergences. 8 seeds x 7 algorithms x 2 datasets x 3 model configs
// gives ~336 (minus gather/edgeless skips).
TEST(DifftestSmoke, RandomizedSweepHasNoDivergences) {
  SweepOptions options;
  options.seed0 = 1;
  options.num_seeds = 8;
  const SweepSummary summary = ValueOrDie(RunSweep(options));
  EXPECT_GE(summary.combos_run, 200u);
  EXPECT_EQ(summary.graphs, 8u);
  EXPECT_EQ(summary.datasets_built, 16u);
  ASSERT_TRUE(summary.divergences.empty())
      << DescribeDivergence(summary.divergences[0]);
}

// A second seed window, so two tier-1 runs don't retread the same graphs.
TEST(DifftestSmoke, SecondSeedWindowHasNoDivergences) {
  SweepOptions options;
  options.seed0 = 101;
  options.num_seeds = 4;
  const SweepSummary summary = ValueOrDie(RunSweep(options));
  EXPECT_GE(summary.combos_run, 100u);
  ASSERT_TRUE(summary.divergences.empty())
      << DescribeDivergence(summary.divergences[0]);
}

// The harness must actually catch a bug: inject a deliberate engine fault
// (drop every Apply of the lexicographically largest edge), confirm the
// sweep reports a divergence, emits a minimized artifact, and that
// replaying the artifact reproduces the divergence deterministically.
TEST(DifftestSmoke, InjectedFaultIsCaughtAndReplayable) {
  ScratchDir scratch = ValueOrDie(ScratchDir::Create());
  SweepOptions options;
  options.seed0 = 1;
  options.num_seeds = 8;
  options.fault = EngineFault::kDropMaxEdge;
  options.artifact_dir = scratch.path() + "/artifacts";
  const SweepSummary summary = ValueOrDie(RunSweep(options));
  ASSERT_FALSE(summary.divergences.empty())
      << "injected fault was not detected";
  ASSERT_FALSE(summary.artifact_paths.empty());

  const ReproArtifact artifact =
      ValueOrDie(ReadArtifact(summary.artifact_paths[0]));
  EXPECT_EQ(artifact.fault, EngineFault::kDropMaxEdge);
  const auto replayed =
      ValueOrDie(ReplayArtifact(artifact, scratch.path() + "/replay"));
  ASSERT_TRUE(replayed.has_value())
      << "artifact did not reproduce the divergence";
}

// Same fault on a hand-built path: BFS from 0 with the final edge dropped
// leaves the last vertex unreached — a value-level divergence at a known
// vertex.
TEST(DifftestSmoke, DroppedEdgeDivergesOnPath) {
  ScratchDir scratch = ValueOrDie(ScratchDir::Create());
  const EdgeList graph = GeneratePath(6);
  const BuiltDataset built = ValueOrDie(
      BuildCaseDataset(graph, "none", 2, scratch.path() + "/ds"));
  TrialConfig config;
  config.algo = "bfs";
  config.fault = EngineFault::kDropMaxEdge;  // drops 4 -> 5
  const auto divergence =
      ValueOrDie(RunTrial(graph, 0, *built.dataset, config));
  ASSERT_TRUE(divergence.has_value());
  // Vertex 5 never activates: the iteration count diverges first (engine
  // drains one wave early), or the value check flags vertex 5 — both are
  // acceptable detections of this fault.
  EXPECT_TRUE(divergence->invariant == "iterations" ||
              (divergence->invariant == "value" && divergence->vertex == 5))
      << DescribeDivergence(*divergence);

  // Without the fault the same trial is clean.
  config.fault = EngineFault::kNone;
  const auto clean = ValueOrDie(RunTrial(graph, 0, *built.dataset, config));
  EXPECT_FALSE(clean.has_value());
}

TEST(DifftestArtifact, RoundTripsExactly) {
  ScratchDir scratch = ValueOrDie(ScratchDir::Create());
  ReproArtifact artifact;
  artifact.seed = 1234;
  artifact.family = "power_law+self_loops";
  artifact.invariant = "value";
  artifact.algo = "sssp";
  artifact.root = 3;
  artifact.codec = "varint-delta";
  artifact.p = 4;
  artifact.model = "on_demand";
  artifact.cross_iteration = true;
  artifact.prefetch_depth = 4;
  artifact.fault = EngineFault::kDropMaxEdge;
  EdgeList graph(5);
  graph.AddEdge(0, 1, 0.125f);
  graph.AddEdge(1, 4, 3.9999999f);  // not exactly representable in decimal
  graph.AddEdge(4, 4, 1e-30f);
  artifact.graph = std::move(graph);

  const std::string path = scratch.path() + "/artifact.txt";
  ASSERT_OK(WriteArtifact(artifact, path));
  const ReproArtifact loaded = ValueOrDie(ReadArtifact(path));

  EXPECT_EQ(loaded.seed, artifact.seed);
  EXPECT_EQ(loaded.family, artifact.family);
  EXPECT_EQ(loaded.invariant, artifact.invariant);
  EXPECT_EQ(loaded.algo, artifact.algo);
  EXPECT_EQ(loaded.root, artifact.root);
  EXPECT_EQ(loaded.codec, artifact.codec);
  EXPECT_EQ(loaded.p, artifact.p);
  EXPECT_EQ(loaded.model, artifact.model);
  EXPECT_EQ(loaded.cross_iteration, artifact.cross_iteration);
  EXPECT_EQ(loaded.prefetch_depth, artifact.prefetch_depth);
  EXPECT_EQ(loaded.fault, artifact.fault);
  ASSERT_EQ(loaded.graph.num_edges(), artifact.graph.num_edges());
  ASSERT_EQ(loaded.graph.num_vertices(), artifact.graph.num_vertices());
  for (std::size_t k = 0; k < artifact.graph.num_edges(); ++k) {
    EXPECT_EQ(loaded.graph.edges()[k].src, artifact.graph.edges()[k].src);
    EXPECT_EQ(loaded.graph.edges()[k].dst, artifact.graph.edges()[k].dst);
    // %a hex floats must round-trip bit for bit.
    EXPECT_EQ(loaded.graph.weights()[k], artifact.graph.weights()[k]);
  }
}

// Writes a replayable fault artifact, splices `legacy_line` in after its
// prefetch_depth line, and checks the reader accepts and ignores the line:
// the artifact still loads and replays its divergence.
void ExpectLegacyLineIgnored(const std::string& legacy_line) {
  ScratchDir scratch = ValueOrDie(ScratchDir::Create());
  ReproArtifact artifact;
  artifact.algo = "bfs";
  artifact.root = 0;
  artifact.codec = "varint-delta";
  artifact.p = 2;
  artifact.model = "full";
  artifact.prefetch_depth = 1;
  artifact.fault = EngineFault::kDropMaxEdge;
  artifact.graph = GeneratePath(6);

  const std::string path = scratch.path() + "/legacy.txt";
  ASSERT_OK(WriteArtifact(artifact, path));
  std::string text = ValueOrDie(io::ReadFileToString(path));
  const std::string key = legacy_line.substr(0, legacy_line.find(' ') + 1);
  ASSERT_EQ(text.find("\n" + key), std::string::npos);
  const std::string anchor = "prefetch_depth 1\n";
  const std::size_t at = text.find(anchor);
  ASSERT_NE(at, std::string::npos);
  text.insert(at + anchor.size(), legacy_line + "\n");
  ASSERT_OK(io::WriteStringToFile(path, text));

  const ReproArtifact loaded = ValueOrDie(ReadArtifact(path));
  EXPECT_EQ(loaded.prefetch_depth, artifact.prefetch_depth);
  EXPECT_EQ(loaded.fault, artifact.fault);
  EXPECT_EQ(loaded.graph.num_edges(), artifact.graph.num_edges());
  const auto replayed =
      ValueOrDie(ReplayArtifact(loaded, scratch.path() + "/replay"));
  ASSERT_TRUE(replayed.has_value())
      << "legacy artifact did not reproduce the divergence";
}

// Artifacts written before apply went serial carry a destination-shard
// count.
TEST(DifftestArtifact, ReadsAndReplaysLegacyComputeThreadsLine) {
  ExpectLegacyLineIgnored("compute_threads 8");
}

// Artifacts written while the engine had a worker pool carry its size.
TEST(DifftestArtifact, ReadsAndReplaysLegacyThreadsLine) {
  ExpectLegacyLineIgnored("threads 4");
}

TEST(DifftestArtifact, RejectsMalformedFiles) {
  ScratchDir scratch = ValueOrDie(ScratchDir::Create());
  const std::string path = scratch.path() + "/bad.txt";

  // Wrong header.
  ASSERT_OK(io::WriteStringToFile(path, "not-an-artifact\nend\n"));
  EXPECT_FALSE(ReadArtifact(path).ok());

  // Missing terminator.
  ASSERT_OK(io::WriteStringToFile(
      path, "graphsd-difftest-repro v1\nalgo bfs\nvertices 1\n"));
  EXPECT_FALSE(ReadArtifact(path).ok());

  // Declared edge count disagrees with edge lines.
  ASSERT_OK(io::WriteStringToFile(
      path,
      "graphsd-difftest-repro v1\nalgo bfs\nroot 0\nvertices 2\nedges 2\n"
      "weighted 0\ne 0 1\nend\n"));
  EXPECT_FALSE(ReadArtifact(path).ok());
}

// The minimizer must shrink a failing case while preserving the failure.
TEST(DifftestMinimizer, ShrinksFaultRepro) {
  ScratchDir scratch = ValueOrDie(ScratchDir::Create());
  // A star of noise edges plus a chain ending in the graph's max edge
  // (34 -> 35), which the fault drops: only the chain back to the root is
  // needed to reproduce vertex 35 going unreached.
  EdgeList graph(36);
  for (VertexId v = 1; v <= 30; ++v) graph.AddEdge(0, v);
  for (VertexId v = 30; v < 35; ++v) graph.AddEdge(v, v + 1);

  ReproArtifact artifact;
  artifact.algo = "bfs";
  artifact.root = 0;
  artifact.codec = "none";
  artifact.p = 2;
  artifact.model = "auto";
  artifact.fault = EngineFault::kDropMaxEdge;
  artifact.graph = graph;

  ASSERT_OK(MinimizeArtifact(artifact, scratch.path(), /*budget=*/48));
  EXPECT_LT(artifact.graph.num_edges(), graph.num_edges());
  EXPECT_LE(artifact.graph.num_vertices(), graph.num_vertices());
  // Still diverging after minimization.
  const auto replayed =
      ValueOrDie(ReplayArtifact(artifact, scratch.path() + "/replay"));
  EXPECT_TRUE(replayed.has_value());
}

}  // namespace
}  // namespace graphsd::testing
