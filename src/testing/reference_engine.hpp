// In-memory reference engine: textbook BSP, the difftest oracle.
//
// Executes a core::Program directly over a (src, dst)-sorted edge list —
// single threaded, fully in memory, no grid, no scheduler, no
// cross-iteration updates, no I/O. One BSP iteration snapshots every active
// vertex's contribution, applies every edge whose source is active in
// ascending (src, dst) order, and swaps in the set of newly-activated
// destinations as the next frontier.
//
// Because the real engine's column-major grid traversal delivers each
// destination its contributions in ascending source order (and its
// single-consumer reduction order is therefore identical to this loop), the
// oracle's final values are *bitwise* comparable for every algorithm with
// cross-iteration off, and for monotone/idempotent algorithms (BFS, CC,
// SSSP, widest path) and fixed-iteration PageRank under every
// configuration. The invariant classes are spelled out in DESIGN.md §11.
#pragma once

#include <cstdint>
#include <vector>

#include "core/program.hpp"
#include "graph/edge_list.hpp"
#include "util/status.hpp"

namespace graphsd::testing {

struct ReferenceOptions {
  /// Safety net: an algorithm that fails to converge within this many BSP
  /// iterations yields kDeadlineExceeded-like failure instead of spinning.
  std::uint32_t max_iterations = 1u << 20;
  /// Record the frontier entering every iteration (index 0 = the initial
  /// frontier, index k = the frontier entering iteration k). The final
  /// recorded entry is the empty frontier that ended the run.
  bool record_frontiers = true;
};

struct ReferenceResult {
  /// BSP iterations executed until the frontier drained (or the program's
  /// own iteration budget, for gather programs).
  std::uint32_t iterations = 0;
  /// Program::ValueOf for every vertex after convergence.
  std::vector<double> values;
  /// Frontier entering iteration k, ascending vertex ids (push programs
  /// only; empty for gather programs and when record_frontiers is off).
  std::vector<std::vector<VertexId>> frontiers;
};

/// Runs `program` to convergence over `graph` under plain BSP semantics.
/// The graph does not need to be pre-sorted; a sorted copy is taken.
Result<ReferenceResult> RunReferenceBsp(core::Program& program,
                                        const EdgeList& graph,
                                        const ReferenceOptions& options = {});

}  // namespace graphsd::testing
