// Full cross-iteration update — FCIU (paper §4.2, Algorithm 3) — and the
// other full-sweep rounds built on the same core.
//
// One loading round under the full I/O model executes up to TWO BSP
// iterations. Sub-blocks are swept column-major (for j, for i): after
// column j completes, every vertex of interval j holds its final
// iteration-t value ("sealed"). Sub-block (i, j) with i < j therefore has
// fully-updated sources the moment it is streamed, so its edges also
// produce iteration t+1 values (CrossIterUpdate) using the same in-memory
// copy — no reload. The diagonal (j, j) is held in memory until its column
// seals, then cross-iterated. Only the secondary sub-blocks (i > j) must be
// touched again in the second half of the round; those are the blocks the
// priority buffer (§4.3) caches.
//
// A push round comes in three kinds (the scheduler's choice, recorded as
// the round's RoundModel):
//   * kFciu — the two-iteration round above;
//   * kPlainFull — only the first half: one plain BSP iteration (the
//     GraphSD-b1 / baseline behaviour, and the last round of a budget);
//   * kSemi — a plain round over a skip-filtered plan (DESIGN.md §14):
//     sub-blocks provably idle under the active frontier are dropped
//     before any edge I/O, and every consumed block is offered to the
//     buffer, not only i > j.
// Every push apply is guarded by frontier membership (GraphSD's
// state-awareness); the gather variant accumulates every edge (PageRank).
//
// The sweep order of each half-round is known before any byte is read, so
// both halves run off a BlockSource stream: sub-blocks load on the
// pipeline's loader thread while the previous block's edges are applied.
// Blocks the priority buffer already holds are skipped at issue time and
// consumed through the buffer, keeping byte counts and hit/miss accounting
// identical to the synchronous path.
#pragma once

#include <cstdint>

#include "core/exec_context.hpp"
#include "core/frontier.hpp"
#include "core/program.hpp"
#include "core/report.hpp"
#include "util/status.hpp"

namespace graphsd::core {

class FciuExecutor {
 public:
  explicit FciuExecutor(const ExecContext& ctx) : ctx_(ctx) {}

  /// Push round of `kind` (kFciu, kPlainFull or kSemi). Entering: `active`
  /// is the iteration-t frontier, `out` is pre-seeded with cross-activated
  /// vertices from the previous round. A kFciu round executes t and t+1:
  /// `out` is fully consumed and the next frontier is `out_ni` (unless `out`
  /// came out empty, see iterations_covered). The single-iteration kinds
  /// execute only t; the next frontier is `out`.
  Status RunPushRound(const PushProgram& program, VertexState& state,
                      const Frontier& active, Frontier& out, Frontier& out_ni,
                      RoundModel kind, RoundStat& stat,
                      double* update_seconds);

  /// Gather round (all vertices implicitly active). With `two_iterations`
  /// advances the values by two BSP iterations in one loading round.
  Status RunGatherRound(const GatherProgram& program, VertexState& state,
                        bool two_iterations, RoundStat& stat,
                        double* update_seconds);

 private:
  ExecContext ctx_;
};

}  // namespace graphsd::core
