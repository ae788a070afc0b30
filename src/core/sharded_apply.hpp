// Deterministic parallel edge application, sharded by destination vertex.
//
// The executors' combines are commutative and associative per destination,
// but floating-point combines are NOT associative across reordering — so
// chunk-claiming parallelism over the edge array (any thread may apply any
// edge) produces run-to-run nondeterminism for float programs. Sharding by
// *destination* instead makes parallel compute bit-identical to serial:
//
//   * the destination range of a pass (interval j for a sub-block pass, the
//     whole vertex space for SCIU's retained-edge step) is split into S
//     contiguous sub-ranges, one pool task each;
//   * every task scans the full edge span in file order and applies only
//     the edges whose `dst` falls in its sub-range.
//
// Each destination's updates therefore arrive in exactly the serial order
// (file order), and each destination has exactly one writer per pass. That
// single-writer rule is what lets every program combine with plain loads
// and stores (core/program.hpp): no atomics, no compare-exchange. Reads of
// source contributions are stable during a pass (contributions are sealed
// before it), and frontier activation is a thread-safe per-dst bitset op,
// so the only cost of parallelism is the S-fold re-scan of the edge array.
//
// Each task hands its sub-range to the program's ApplySpan, which returns
// the edges it applied; the counts are summed once after the pass rather
// than through a shared counter per edge.
//
// `shards <= 1`, a single-worker pool or a span of at most kParallelGrain
// edges all fall back to one ApplySpan over the whole destination range.
#pragma once

#include <algorithm>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "core/exec_context.hpp"
#include "core/program.hpp"
#include "core/vertex_state.hpp"
#include "graph/types.hpp"
#include "util/clock.hpp"
#include "util/thread_pool.hpp"

namespace graphsd::core {

/// Edges below which a pass runs serially: smaller spans cannot amortize
/// the pool dispatch.
inline constexpr std::size_t kParallelGrain = 16384;

/// Runs `program.ApplySpan` over `pass` split into destination shards, with
/// the pool and shard count from `ctx`, and returns the sum of the
/// per-shard applied-edge counts. `ProgramT` is PushProgram or
/// GatherProgram. Bit-identical to one serial ApplySpan for any shard count.
///
/// `ctx.apply_excess`, when non-null, accumulates (measured elapsed −
/// longest shard task) per parallel pass: the wall time lost to running
/// more shards than the machine has cores. Task cost is the task's *thread
/// CPU time*, not its wall time — on an oversubscribed host the tasks
/// time-slice, so every task's wall spans the whole pass while its CPU
/// delta is still exactly the work it did; on an adequately-cored host the
/// two coincide. It is ~0 when shards execute truly concurrently and
/// exactly 0 on the serial fallback, so `compute_seconds − excess` is the
/// compute wall a machine with >= `shards` cores would see. Strictly
/// passive — never read by the executors, never affects results or
/// decisions.
template <typename ProgramT>
std::uint64_t ShardedDstApply(const ExecContext& ctx, const ProgramT& program,
                              VertexState& state, const ApplyPass& pass) {
  if (pass.num_edges == 0) return 0;
  ThreadPool& pool = *ctx.pool;
  double* serialization_excess = ctx.apply_excess;
  const VertexId dst_begin = pass.dst_begin;
  const std::uint64_t span =
      pass.dst_end > dst_begin
          ? static_cast<std::uint64_t>(pass.dst_end - dst_begin)
          : 0;
  const std::size_t effective = static_cast<std::size_t>(std::min<std::uint64_t>(
      std::max<std::size_t>(ctx.compute_shards, 1),
      std::max<std::uint64_t>(span, 1)));
  if (effective <= 1 || pool.size() <= 1 || pass.num_edges <= kParallelGrain) {
    return program.ApplySpan(state, pass);
  }
  using Clock = std::chrono::steady_clock;
  // One slot per shard start index; tasks cover disjoint [s, s_end) ranges
  // so the writes never race.
  std::vector<std::uint64_t> applied(effective, 0);
  std::vector<double> task_seconds;
  if (serialization_excess != nullptr) task_seconds.assign(effective, 0);
  const Clock::time_point pass_start = Clock::now();
  pool.ParallelFor(0, effective, 1, [&](std::size_t s, std::size_t s_end) {
    const double task_cpu_start =
        serialization_excess != nullptr ? ThreadCpuSeconds() : 0;
    const std::size_t task_slot = s;
    std::uint64_t task_applied = 0;
    ApplyPass shard = pass;
    for (; s < s_end; ++s) {
      // 64-bit shard boundaries: span * (s + 1) stays well under 2^64 for
      // any real vertex count.
      shard.dst_begin = dst_begin + static_cast<VertexId>(span * s / effective);
      shard.dst_end =
          dst_begin + static_cast<VertexId>(span * (s + 1) / effective);
      task_applied += program.ApplySpan(state, shard);
    }
    applied[task_slot] = task_applied;
    if (serialization_excess != nullptr) {
      task_seconds[task_slot] = ThreadCpuSeconds() - task_cpu_start;
    }
  });
  if (serialization_excess != nullptr) {
    const double elapsed =
        std::chrono::duration<double>(Clock::now() - pass_start).count();
    double critical = 0;
    for (const double t : task_seconds) critical = std::max(critical, t);
    *serialization_excess += std::max(0.0, elapsed - critical);
  }
  std::uint64_t total = 0;
  for (const std::uint64_t n : applied) total += n;
  return total;
}

/// The pass over all of `edges`, destinations restricted to
/// [dst_begin, dst_end). `weights` ride along only when `need_weights`.
inline ApplyPass EdgePass(const std::vector<Edge>& edges,
                          const std::vector<Weight>& weights, bool need_weights,
                          VertexId dst_begin, VertexId dst_end) {
  ApplyPass pass;
  pass.edges = edges.data();
  pass.weights = need_weights ? weights.data() : nullptr;
  pass.num_edges = edges.size();
  pass.dst_begin = dst_begin;
  pass.dst_end = dst_end;
  return pass;
}

}  // namespace graphsd::core
