// Selective cross-iteration update — SCIU (paper §4.2, Algorithm 2).
//
// One BSP iteration under the on-demand I/O model:
//   1. Snapshot contributions of the active vertices (UserFunction inputs).
//   2. Sweep sub-blocks row by row; within each sub-block, use the source
//      index to read only the active vertices' edge ranges. Ranges of
//      consecutive active vertices coalesce into single requests (this is
//      where S_seq comes from). Apply each edge; activations go to `out`.
//   3. Cross-iteration step: vertices re-activated during this iteration
//      whose edges are resident (they were active, so their edges were just
//      loaded and retained) push their *new* values into iteration t+1
//      immediately (CrossIterUpdate), are removed from `out`, and the
//      vertices they activate go to `out_ni` (scheduled two iterations out).
//
// Retention is all-or-nothing per iteration: if the active edges exceed the
// memory budget, the edges are processed streaming and the cross-iteration
// step is skipped for that iteration.
// The whole sweep's read script — which index entries and which coalesced
// edge runs get read, in what order — depends only on the (const) active
// frontier and the offsets those reads return, never on applied values. It
// is therefore computed up front and executed pass-by-pass on the prefetch
// pipeline's reader threads, overlapping ranged reads with edge application.
#pragma once

#include <atomic>
#include <cstdint>
#include <utility>
#include <vector>

#include "core/exec_context.hpp"
#include "core/frontier.hpp"
#include "core/program.hpp"
#include "core/report.hpp"
#include "io/prefetch.hpp"
#include "util/status.hpp"

namespace graphsd::core {

/// Edges one sub-block pass — (i, j) under the active frontier — reads.
/// `runs` lists the coalesced ranges as [begin, end) into `edges`, in read
/// order; the consumer applies them run by run, exactly as the synchronous
/// path did.
///
/// Compressed datasets cannot range-read the edge file (the CSR index
/// addresses decoded offsets, the file holds a GSDF frame), so the loader
/// leaves `edges` empty, keeps `runs` in decoded-block coordinates, reads
/// the weight ranges as usual (the weight file stays raw), and ships the
/// whole frame in `fetched` — unless the decoded block was buffer-resident
/// at issue time, in which case `fetched` stays empty too. The consumer
/// acquires the decoded block through its BlockSource, copies the active
/// runs into `edges`, and rebases `runs` in place.
struct SciuPassPayload {
  std::vector<Edge> edges;
  std::vector<Weight> weights;
  std::vector<std::pair<std::size_t, std::size_t>> runs;
  partition::SubBlockPayload fetched;
};

class SciuExecutor {
 public:
  explicit SciuExecutor(const ExecContext& ctx)
      : ctx_(ctx),
        verified_(static_cast<std::size_t>(ctx.dataset->manifest().p) *
                  ctx.dataset->manifest().p) {}

  /// Runs one iteration. `cross_iteration=false` degrades to pure selective
  /// processing (the GraphSD-b1 / HUS-Graph behaviour).
  /// `update_seconds` accumulates wall time spent applying updates.
  Status RunIteration(const PushProgram& program, VertexState& state,
                      const Frontier& active, Frontier& out, Frontier& out_ni,
                      bool cross_iteration, RoundStat& stat,
                      double* update_seconds);

 private:
  /// Active vertices of one source interval, as ascending local ids, with
  /// nearby actives grouped so each group costs one index read per
  /// sub-block.
  struct IntervalActives {
    struct Group {
      std::size_t begin_pos;
      std::size_t end_pos;  // exclusive, into `locals`
    };
    std::vector<VertexId> locals;
    std::vector<Group> groups;
  };

  /// Ranged reads cannot verify checksums per request, so the first time a
  /// run touches sub-block (i, j) its payload files are CRC-verified in
  /// full. Called at the top of FetchPass, so it runs on a reader thread
  /// (inline at prefetch depth 0) and the first corrupt sub-block in plan
  /// order fails its pass. The verification reads use raw (unaccounted)
  /// I/O: they are not part of the paper's I/O economics.
  Status EnsureSubBlockVerified(std::uint32_t i, std::uint32_t j,
                                bool need_weights);

  /// Reads one pass: verification on first touch, index offsets per group,
  /// then the coalesced edge runs, in exactly the synchronous order. Runs
  /// on a reader thread when prefetching, inline otherwise. Passes of one
  /// sweep may run concurrently on a real device's readers; each touches
  /// only its own payload and its own `verified_` slot. `resident` tells a
  /// compressed pass the decoded block was cached at issue time, so the
  /// frame read is elided.
  Status FetchPass(std::uint32_t i, std::uint32_t j,
                   const IntervalActives& actives, bool need_weights,
                   bool resident, SciuPassPayload& out);

  ExecContext ctx_;
  /// Per sub-block slot: verified this run. Written only by FetchPass, on
  /// whichever reader thread runs the pass.
  std::vector<std::atomic<bool>> verified_;
  /// Iteration label for trace spans recorded by FetchPass. Set before the
  /// sweep's fetch units are planned and stable until the stream drains, so
  /// the reader threads read it race-free.
  std::uint32_t trace_iteration_ = 0;
};

}  // namespace graphsd::core
