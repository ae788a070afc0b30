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
// (file order), and two tasks never touch the same destination — no atomics
// needed for correctness, no reordering of any per-dst combine chain. Reads
// of source contributions are stable during a pass (contributions are
// sealed before it), frontier activation is a thread-safe per-dst bitset
// op, so the only cost of parallelism is the S-fold re-scan of the edge
// array — cheap sequential traffic against the random-access apply work it
// spreads across cores.
//
// `shards <= 1`, a single-worker pool or a span of at most kParallelGrain
// edges all fall back to the plain serial loop, which is byte-for-byte the
// pre-parallel code path.
#pragma once

#include <algorithm>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "core/exec_context.hpp"
#include "graph/types.hpp"
#include "partition/grid_dataset.hpp"
#include "util/clock.hpp"
#include "util/thread_pool.hpp"

namespace graphsd::core {

/// Edges below which a pass runs serially: smaller spans cannot amortize
/// the pool dispatch.
inline constexpr std::size_t kParallelGrain = 16384;

/// Applies `fn(edge, weight)` to edges[begin, end) (weights aligned when
/// `need_weights`), restricted per task to destinations in
/// [dst_begin, dst_end), with the pool and shard count from `ctx`.
/// Bit-identical to the serial loop for any shard count.
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
template <typename Fn>
void ShardedDstApplyRange(const ExecContext& ctx, const Edge* edges,
                          const Weight* weights, std::size_t begin,
                          std::size_t end, bool need_weights,
                          VertexId dst_begin, VertexId dst_end, Fn&& fn) {
  const auto serial = [&] {
    for (std::size_t k = begin; k < end; ++k) {
      const Weight w = need_weights ? weights[k] : Weight{1};
      fn(edges[k], w);
    }
  };
  if (begin >= end) return;
  ThreadPool& pool = *ctx.pool;
  double* serialization_excess = ctx.apply_excess;
  const std::uint64_t span =
      dst_end > dst_begin ? static_cast<std::uint64_t>(dst_end - dst_begin) : 0;
  const std::size_t effective = static_cast<std::size_t>(std::min<std::uint64_t>(
      std::max<std::size_t>(ctx.compute_shards, 1),
      std::max<std::uint64_t>(span, 1)));
  if (effective <= 1 || pool.size() <= 1 || end - begin <= kParallelGrain) {
    serial();
    return;
  }
  using Clock = std::chrono::steady_clock;
  // One slot per shard start index; tasks cover disjoint [s, s_end) ranges
  // so the writes never race. Only allocated when the caller asked for the
  // critical-path measurement.
  std::vector<double> task_seconds;
  if (serialization_excess != nullptr) task_seconds.assign(effective, 0);
  const Clock::time_point pass_start = Clock::now();
  pool.ParallelFor(0, effective, 1, [&](std::size_t s, std::size_t s_end) {
    const double task_cpu_start =
        serialization_excess != nullptr ? ThreadCpuSeconds() : 0;
    const std::size_t task_slot = s;
    for (; s < s_end; ++s) {
      // 64-bit shard boundaries: span * (s + 1) stays well under 2^64 for
      // any real vertex count.
      const VertexId lo =
          dst_begin + static_cast<VertexId>(span * s / effective);
      const VertexId hi =
          dst_begin + static_cast<VertexId>(span * (s + 1) / effective);
      // The filter scan is the price of sharding (every task walks the
      // whole span), so it is the hot loop: one unsigned compare — dst−lo
      // wraps for dst < lo, landing >= width — instead of two.
      const VertexId width = hi - lo;
      for (std::size_t k = begin; k < end; ++k) {
        const Edge& edge = edges[k];
        if (static_cast<VertexId>(edge.dst - lo) >= width) continue;
        const Weight w = need_weights ? weights[k] : Weight{1};
        fn(edge, w);
      }
    }
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
}

/// SubBlock convenience wrapper: applies over the whole block, destinations
/// restricted to [dst_begin, dst_end) — the block's destination interval.
template <typename Fn>
void ShardedDstApply(const ExecContext& ctx, const partition::SubBlock& block,
                     bool need_weights, VertexId dst_begin, VertexId dst_end,
                     Fn&& fn) {
  ShardedDstApplyRange(ctx, block.edges.data(), block.weights.data(), 0,
                       block.edges.size(), need_weights, dst_begin, dst_end,
                       static_cast<Fn&&>(fn));
}

}  // namespace graphsd::core
