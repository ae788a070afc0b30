// Registry of every engine algorithm for the differential harness.
//
// Each algorithm carries its comparison class (DESIGN.md §11), which
// defines how strictly engine results must match the oracle under a given
// configuration:
//
//   kMonotone       — idempotent min/max combine (BFS, CC, SSSP, widest
//                     path). Values are bitwise-identical to the oracle
//                     under *every* configuration; iteration counts equal
//                     the oracle's with cross-iteration off and fall in
//                     [1, 2·oracle + 1] with it on (a cross apply can
//                     steal a wave-t activation, delaying a push one wave;
//                     column-end sealing can chain values through
//                     ascending intervals, finishing early).
//   kSumThreshold   — consumable-sum programs with an activation threshold
//                     (PR-Delta, PPR). Bitwise + iteration-equal with
//                     cross-iteration off; fixpoint-equal within float
//                     tolerance with it on.
//   kFixedIteration — budget-driven gather programs (PageRank). Iteration
//                     counts always equal the budget; values always
//                     bitwise.
#pragma once

#include <memory>
#include <span>
#include <string>

#include "core/program.hpp"
#include "util/status.hpp"

namespace graphsd::testing {

enum class AlgoClass { kMonotone, kSumThreshold, kFixedIteration };

struct AlgoSpec {
  const char* name;
  bool needs_root;
  bool needs_weights;
  bool push;  // PushProgram (frontier-driven) vs GatherProgram
  AlgoClass cls;
};

/// Every algorithm the harness sweeps, in a stable order.
std::span<const AlgoSpec> RegisteredAlgos();

/// Spec for `name`; kNotFound for unknown algorithms.
Result<AlgoSpec> AlgoSpecFor(const std::string& name);

/// Constructs the named program. `root` is ignored by rootless algorithms.
Result<std::unique_ptr<core::Program>> MakeProgram(const std::string& name,
                                                   VertexId root);

}  // namespace graphsd::testing
