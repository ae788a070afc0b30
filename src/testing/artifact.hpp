// Self-contained repro artifacts for differential-test divergences.
//
// When the sweep finds a divergence it minimizes the failing case and
// writes everything needed to re-execute it — the (minimized) graph, the
// engine configuration, the algorithm, and any injected fault — to one
// human-readable text file. `graphsd difftest --replay <file>` re-runs the
// trial deterministically and reports the first diverging vertex.
//
// Format (line-oriented, '#' comments ignored):
//
//   graphsd-difftest-repro v1
//   seed <u64>                 # originating sweep seed (provenance only)
//   family <string>            # graph family tag (provenance only)
//   invariant <string>         # which invariant failed (provenance only)
//   algo <name>
//   root <vertex>
//   codec none|varint-delta
//   p <u32>
//   model auto|on_demand|full
//   cross_iteration 0|1
//   prefetch_depth <u32>
//   fault none|drop_max_edge
//   vertices <u32>
//   edges <u64>
//   weighted 0|1
//   e <src> <dst> [<weight>]   # weight in C hex-float (%a) — exact
//   end
//
// Older files may also carry an engine thread-count line (`threads`) or a
// destination-shard-count line (`compute_threads`), which ReadArtifact
// accepts and ignores.
#pragma once

#include <cstdint>
#include <string>

#include "graph/edge_list.hpp"
#include "util/status.hpp"

namespace graphsd::testing {

/// Fault deliberately injected into the engine-side program, used to prove
/// the harness catches real divergences (and to replay that proof).
enum class EngineFault : std::uint8_t {
  kNone,
  /// Drop Apply for the lexicographically largest (src, dst) edge.
  kDropMaxEdge,
};

struct ReproArtifact {
  std::uint64_t seed = 0;
  std::string family;
  std::string invariant;
  std::string algo;
  VertexId root = 0;
  std::string codec = "none";
  std::uint32_t p = 1;
  std::string model = "auto";  // auto | on_demand | full
  bool cross_iteration = false;
  std::uint32_t prefetch_depth = 0;
  EngineFault fault = EngineFault::kNone;
  EdgeList graph{0};
};

/// Serializes `artifact` to `path` (overwrites).
Status WriteArtifact(const ReproArtifact& artifact, const std::string& path);

/// Parses an artifact file; kInvalidArgument on any malformed line.
Result<ReproArtifact> ReadArtifact(const std::string& path);

const char* FaultName(EngineFault fault);

}  // namespace graphsd::testing
