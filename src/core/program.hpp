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
/// The filter and weight tests are hoisted out of the loop.
template <typename Fn>
std::uint64_t ForEachPassEdge(const ApplyPass& pass, Fn&& fn) {
  const bool filtered = pass.sources != nullptr;
  const bool weighted = pass.weights != nullptr;
  if (filtered) {
    return weighted ? detail::ForEachPassEdge<true, true>(pass, fn)
                    : detail::ForEachPassEdge<true, false>(pass, fn);
  }
  return weighted ? detail::ForEachPassEdge<false, true>(pass, fn)
                  : detail::ForEachPassEdge<false, false>(pass, fn);
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
