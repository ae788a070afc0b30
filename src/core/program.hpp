// GraphSD programming model (paper §4.2).
//
// A user algorithm implements one of two program kinds:
//
//   * PushProgram — frontier-driven algorithms with a commutative, monotone
//     combine (CC, SSSP, BFS) or a commutative sum over consumable
//     contributions (PageRank-Delta). `MakeContribution(v)` snapshots (and
//     possibly consumes) v's outgoing contribution for one BSP iteration;
//     `Apply(e)` is the paper's UserFunction when reading the kPrimary
//     snapshot and its CrossIterUpdate when reading the kSecondary (sealed
//     post-iteration) snapshot.
//
//   * GatherProgram — dense algorithms that re-accumulate every vertex each
//     iteration (PageRank). Contributions accumulate into an AccumSlot;
//     kA collects iteration t and kB iteration t+1 within one FCIU round.
//
// All combine operations must be commutative and associative: that is the
// property that makes cross-iteration value computation exact under BSP
// semantics.
//
// Single-writer rule. The executors hand edges to a program one pass at a
// time through `ApplySpan`, and one consumer thread applies every pass, in
// file order. The only other engine thread is the prefetch loader, which
// reads, verifies and decodes but never touches vertex state. The
// contribution arrays a pass reads are sealed before it starts. A combine
// therefore updates dst with plain loads and stores — no atomics, no
// compare-exchange — and float reductions are bit-identical at any
// prefetch depth.
//
// Active-source walk. A pass over a sorted dataset's sub-block (ApplyPass::
// sorted_by_src, set from the manifest) holds each source's edges as one
// run, so a filtered pass — FCIU and semi primary and secondary pushes,
// and the buffer's rescoring count — jumps from an inactive stretch to the
// next active source instead of testing every edge. Spans not sorted by
// src keep the linear loop: the Lumos layout, and SCIU's cross-step arena,
// which concatenates runs from many sub-blocks. SCIU's primary passes and
// gather passes have no source filter. Either way every edge that applies
// does so in file order behind the same destination-range check, so the
// walk changes no value, count or float sum.
//
// Programs derive from PushKernel<Derived> / GatherKernel<Derived>, which
// implement the span loop once per program with the combine inlined. A
// program that overrides only the per-edge virtual (the difftest wrappers)
// gets the base-class span loop over that virtual, with the same semantics.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <string>
#include <type_traits>
#include <vector>

#include "core/frontier.hpp"
#include "core/vertex_state.hpp"
#include "graph/types.hpp"

namespace graphsd::core {

/// One edge pass of an executor: the `num_edges` edges in file order,
/// restricted to destinations in [dst_begin, dst_end) and, with `sources`
/// set, to active sources.
struct ApplyPass {
  const Edge* edges = nullptr;
  /// Aligned with `edges`; null when the pass streams no weights, in which
  /// case every edge carries Weight{1}.
  const Weight* weights = nullptr;
  std::size_t num_edges = 0;
  VertexId dst_begin = 0;
  VertexId dst_end = 0;
  /// The contribution snapshot sources are read from.
  ContribSlot contrib = ContribSlot::kPrimary;
  /// Gather passes: the accumulator destinations add into.
  AccumSlot accum = AccumSlot::kA;
  /// Optional source filter: only edges whose src is active apply.
  const Frontier* sources = nullptr;
  /// The edges ascend by src (the sub-blocks of a sorted dataset), so a
  /// filtered pass may jump over inactive sources' runs.
  bool sorted_by_src = false;
  /// Push passes: destinations whose combine reports a change activate here.
  Frontier* activate = nullptr;
};

/// The pass over all of `edges`, destinations restricted to
/// [dst_begin, dst_end). `weights` ride along only when `need_weights`.
inline ApplyPass EdgePass(std::span<const Edge> edges,
                          std::span<const Weight> weights, bool need_weights,
                          VertexId dst_begin, VertexId dst_end) {
  ApplyPass pass;
  pass.edges = edges.data();
  pass.weights = need_weights ? weights.data() : nullptr;
  pass.num_edges = edges.size();
  pass.dst_begin = dst_begin;
  pass.dst_end = dst_end;
  return pass;
}

namespace detail {

/// Consecutive inactive-source edges a sorted filtered pass tests one by
/// one before it jumps to the next active source. BM_FilteredApply
/// (bench/micro; walk time over linear time, median of 5 alternating runs,
/// on a shared 4-vCPU Xeon) at 8: a diagonal block 0.003 at 0.1 % of sources
/// active, 0.03 at 1 %, 0.56 at 10 %, 0.85-0.94 at 50 %, 1.08 at 100 %; an
/// off-diagonal one 0.02, 0.11-0.13, 0.53, 1.04, 1.05. At 4 the 10 %
/// off-diagonal case loses its gain (0.67); 16 and 32 buy nothing at 50 %
/// and 100 % that run-to-run noise (±15 %) does not cover, and cost up to
/// a third more at 1 %.
inline constexpr std::uint32_t kInactiveRunBeforeJump = 8;

/// The first index in [k, n) whose edge has src >= `src`, or n; every
/// edge before k has a smaller src. Gallops 1, 2, 4, ... edges ahead,
/// then bisects the last step, so a short jump costs a few probes.
inline std::size_t FirstEdgeFromSource(const Edge* edges, std::size_t k,
                                       std::size_t n, VertexId src) {
  std::size_t lo = k;
  std::size_t hi = k;
  for (std::size_t step = 1; hi < n && edges[hi].src < src; step *= 2) {
    lo = hi + 1;
    hi += step;
  }
  if (hi > n) hi = n;
  while (lo < hi) {
    const std::size_t mid = lo + (hi - lo) / 2;
    if (edges[mid].src < src) {
      lo = mid + 1;
    } else {
      hi = mid;
    }
  }
  return lo;
}

/// The filtered loop over a span sorted by src. It tests edges one by one,
/// like the linear loop, until kInactiveRunBeforeJump consecutive edges
/// had inactive sources; then it asks the frontier for the next active
/// source up to the span's last one and gallops to that source's first
/// edge. Every edge skipped has an inactive source, so `fn` sees exactly
/// the linear loop's edges, in file order.
template <bool kWeighted, typename Fn>
std::uint64_t ForEachActiveSourceEdge(const ApplyPass& pass, Fn& fn) {
  const std::size_t n = pass.num_edges;
  if (n == 0) return 0;
  const Edge* edges = pass.edges;
  const Frontier& sources = *pass.sources;
  const VertexId lo = pass.dst_begin;
  const VertexId width = pass.dst_end - pass.dst_begin;
  const VertexId src_end = edges[n - 1].src + 1;
  std::uint64_t applied = 0;
  std::uint32_t inactive_run = 0;
  std::size_t k = 0;
  while (k < n) {
    const Edge edge = edges[k];
    if (sources.IsActive(edge.src)) {
      inactive_run = 0;
      if (static_cast<VertexId>(edge.dst - lo) < width) {
        ++applied;
        fn(edge.src, edge.dst, kWeighted ? pass.weights[k] : Weight{1});
      }
      ++k;
    } else if (++inactive_run < kInactiveRunBeforeJump) {
      ++k;
    } else {
      // The run stays open across the jump: when the next active source
      // has no edges here, the edge landed on is inactive too and jumps
      // again at once.
      const VertexId next = sources.NextActive(edge.src + 1, src_end);
      if (next == src_end) break;
      k = FirstEdgeFromSource(edges, k + 1, n, next);
    }
  }
  return applied;
}

template <bool kFiltered, bool kWeighted, typename Fn>
std::uint64_t ForEachPassEdge(const ApplyPass& pass, Fn& fn) {
  const VertexId lo = pass.dst_begin;
  const VertexId width = pass.dst_end - pass.dst_begin;
  std::uint64_t applied = 0;
  for (std::size_t k = 0; k < pass.num_edges; ++k) {
    const Edge edge = pass.edges[k];
    // Bounds dst to the pass's range, so a combine never writes outside
    // it. One unsigned compare: dst − lo wraps for dst < lo, landing
    // >= width.
    if (static_cast<VertexId>(edge.dst - lo) >= width) continue;
    if constexpr (kFiltered) {
      if (!pass.sources->IsActive(edge.src)) continue;
    }
    ++applied;
    fn(edge.src, edge.dst, kWeighted ? pass.weights[k] : Weight{1});
  }
  return applied;
}

}  // namespace detail

/// Calls `fn(src, dst, w)` for every edge of `pass` inside its destination
/// range and source filter, in file order. Returns how many edges applied.
/// The filter and weight tests are hoisted out of the loop; a filtered
/// pass sorted by src walks only its active sources' edges.
template <typename Fn>
std::uint64_t ForEachPassEdge(const ApplyPass& pass, Fn&& fn) {
  const bool filtered = pass.sources != nullptr;
  const bool weighted = pass.weights != nullptr;
  if (filtered && pass.sorted_by_src) {
    return weighted ? detail::ForEachActiveSourceEdge<true>(pass, fn)
                    : detail::ForEachActiveSourceEdge<false>(pass, fn);
  }
  if (filtered) {
    return weighted ? detail::ForEachPassEdge<true, true>(pass, fn)
                    : detail::ForEachPassEdge<true, false>(pass, fn);
  }
  return weighted ? detail::ForEachPassEdge<false, true>(pass, fn)
                  : detail::ForEachPassEdge<false, false>(pass, fn);
}

/// How many of `edges` have an active source in `sources` (a cached
/// sub-block's buffer priority): the filtered walk with a counting
/// callable, every destination in range.
inline std::uint64_t CountActiveSourceEdges(std::span<const Edge> edges,
                                            const Frontier& sources,
                                            bool sorted_by_src) {
  ApplyPass pass = EdgePass(edges, {}, /*need_weights=*/false, 0,
                            sources.size());
  pass.sources = &sources;
  pass.sorted_by_src = sorted_by_src;
  return ForEachPassEdge(pass, [](VertexId, VertexId, Weight) {});
}

enum class ProgramKind { kPush, kGather };

class Program {
 public:
  virtual ~Program() = default;

  /// Algorithm name for reports ("pagerank", "sssp", ...).
  virtual std::string name() const = 0;

  virtual ProgramKind kind() const = 0;

  /// Whether edge weights must be streamed (SSSP). Unweighted algorithms
  /// skip the weight files entirely — the M vs M+W distinction of Table 2.
  virtual bool needs_weights() const { return false; }

  /// How many per-vertex arrays the program keeps (PR-Delta: rank+residual).
  virtual std::uint32_t num_value_arrays() const = 0;

  /// Slots per vertex in the engine-managed contribution arrays. Single-
  /// source programs use 1 (the default); multi-source batched programs
  /// (the `graphsd serve` query coalescer) use one lane per source, laid
  /// out lane-major as contrib[v * width + lane].
  virtual std::uint32_t contrib_width() const { return 1; }

  /// Supplies dataset context before Init. Default keeps a view of the
  /// degree array, which must outlive the run (PageRank-family needs
  /// out-degrees to split contributions).
  virtual void Bind(std::span<const std::uint32_t> out_degrees) {
    out_degrees_ = out_degrees;
  }

  /// Initializes vertex values and the initial frontier.
  /// Gather programs may ignore `initial` (they run all-active).
  virtual void Init(VertexState& state, Frontier& initial) = 0;

  /// Iteration budget (PageRank: the configured round count; frontier
  /// algorithms: unbounded, they stop when the frontier drains).
  virtual std::uint32_t max_iterations() const { return UINT32_MAX; }

  /// The result value of vertex `v` as a double (tests, examples, reports).
  virtual double ValueOf(const VertexState& state, VertexId v) const = 0;

 protected:
  std::span<const std::uint32_t> out_degrees_;
};

class PushProgram : public Program {
 public:
  ProgramKind kind() const final { return ProgramKind::kPush; }

  /// Snapshots v's outgoing contribution into state.contrib(slot)[v].
  /// May consume internal state (PR-Delta zeroes the residual). The engine
  /// calls this exactly once per (vertex, iteration in which it is active).
  virtual void MakeContribution(VertexState& state, VertexId v,
                                ContribSlot slot) const = 0;

  /// Applies one edge using the source contribution in `slot`, combining
  /// into dst under the single-writer rule (see the top of this file).
  /// Returns true iff dst must be (re)activated for the following iteration.
  virtual bool Apply(VertexState& state, VertexId src, VertexId dst, Weight w,
                     ContribSlot slot) const = 0;

  /// Applies every edge of `pass` (reading `pass.contrib`), activating in
  /// `*pass.activate` each dst whose Apply returns true. Returns the number
  /// of edges applied. The default loops over the virtual Apply;
  /// PushKernel replaces it with an inlined loop.
  virtual std::uint64_t ApplySpan(VertexState& state,
                                  const ApplyPass& pass) const {
    return ForEachPassEdge(pass, [&](VertexId src, VertexId dst, Weight w) {
      if (Apply(state, src, dst, w, pass.contrib)) pass.activate->Activate(dst);
    });
  }
};

class GatherProgram : public Program {
 public:
  ProgramKind kind() const final { return ProgramKind::kGather; }

  /// Snapshots v's contribution (from its current value) into
  /// state.contrib(slot)[v].
  virtual void MakeContribution(VertexState& state, VertexId v,
                                ContribSlot slot) const = 0;

  /// Resets accumulator `a` to the iteration base value for all vertices.
  virtual void ResetAccum(VertexState& state, AccumSlot a) const = 0;

  /// accum(a)[dst] += contribution(c)[src], under the single-writer rule.
  virtual void Accumulate(VertexState& state, VertexId src, VertexId dst,
                          Weight w, ContribSlot c, AccumSlot a) const = 0;

  /// Accumulates every edge of `pass` from `pass.contrib` into
  /// `pass.accum`. Returns the number of edges applied. The default loops
  /// over the virtual Accumulate; GatherKernel inlines it.
  virtual std::uint64_t ApplySpan(VertexState& state,
                                  const ApplyPass& pass) const {
    return ForEachPassEdge(pass, [&](VertexId src, VertexId dst, Weight w) {
      Accumulate(state, src, dst, w, pass.contrib, pass.accum);
    });
  }

  /// Commits accum(a) into the value array for vertices [begin, end).
  virtual void Finalize(VertexState& state, VertexId begin, VertexId end,
                        AccumSlot a) const = 0;
};

/// CRTP base that gives a push program one inlined, atomic-free span loop.
/// `Derived` supplies
///   auto Combiner(VertexState& state, ContribSlot slot) const;
/// returning a callable `bool(VertexId src, VertexId dst, Weight w)` that
/// reads the `slot` snapshot and combines into dst with plain loads and
/// stores, returning true iff dst must activate. Both Apply and ApplySpan
/// run it, so the per-edge and span paths cannot drift apart. `Base` lets
/// an intermediate program base (MultiSourceProgram) sit in between.
template <typename Derived, typename Base = PushProgram>
class PushKernel : public Base {
  static_assert(std::is_base_of_v<PushProgram, Base>);

 public:
  using Base::Base;

  bool Apply(VertexState& state, VertexId src, VertexId dst, Weight w,
             ContribSlot slot) const final {
    return self().Combiner(state, slot)(src, dst, w);
  }

  std::uint64_t ApplySpan(VertexState& state,
                          const ApplyPass& pass) const final {
    const auto combine = self().Combiner(state, pass.contrib);
    Frontier& activate = *pass.activate;
    return ForEachPassEdge(pass, [&](VertexId src, VertexId dst, Weight w) {
      if (combine(src, dst, w)) activate.Activate(dst);
    });
  }

 private:
  const Derived& self() const { return static_cast<const Derived&>(*this); }
};

/// Gather counterpart of PushKernel. `Derived` supplies
///   auto Combiner(VertexState& state, ContribSlot c, AccumSlot a) const;
/// returning a callable `void(VertexId src, VertexId dst, Weight w)` that
/// adds the `c` contribution of src into accum(a)[dst] with plain stores.
template <typename Derived>
class GatherKernel : public GatherProgram {
 public:
  void Accumulate(VertexState& state, VertexId src, VertexId dst, Weight w,
                  ContribSlot c, AccumSlot a) const final {
    self().Combiner(state, c, a)(src, dst, w);
  }

  std::uint64_t ApplySpan(VertexState& state,
                          const ApplyPass& pass) const final {
    const auto combine = self().Combiner(state, pass.contrib, pass.accum);
    return ForEachPassEdge(pass, combine);
  }

 private:
  const Derived& self() const { return static_cast<const Derived&>(*this); }
};

}  // namespace graphsd::core
