// Single-Source Shortest Path (push kind, weighted).
//
// Frontier-based Bellman-Ford relaxation: dist[dst] = min(dist[dst],
// dist[src] + w). Nonnegative weights; converges to exact distances. The
// only GraphSD algorithm that streams the weight files (the M+W edge-size
// case of the cost model).
#pragma once

#include <cmath>
#include <limits>

#include "core/program.hpp"
#include "core/slot.hpp"

namespace graphsd::algos {

class Sssp final : public core::PushKernel<Sssp> {
 public:
  explicit Sssp(VertexId root) : root_(root) {}

  std::string name() const override { return "sssp"; }
  bool needs_weights() const override { return true; }
  std::uint32_t num_value_arrays() const override { return 1; }  // dist

  void Init(core::VertexState& state, core::Frontier& initial) override;
  void MakeContribution(core::VertexState& state, VertexId v,
                        core::ContribSlot slot) const override;
  /// Relaxation: dist[dst] = min(dist[dst], dist[src] + w).
  auto Combiner(core::VertexState& state, core::ContribSlot slot) const {
    return [contrib = state.contrib(slot).data(),
            dist = state.array(0).data()](VertexId src, VertexId dst,
                                          Weight w) {
      const double src_dist = core::SlotToDouble(contrib[src]);
      if (src_dist == std::numeric_limits<double>::infinity()) return false;
      // Saturate explicitly: a sum that overflows to inf (or passes through
      // a NaN on a corrupted dataset) must never win a relaxation against
      // an unreached (inf) destination or activate it.
      const double candidate = src_dist + static_cast<double>(w);
      if (!std::isfinite(candidate)) return false;
      return core::MinDouble(dist[dst], candidate);
    };
  }
  double ValueOf(const core::VertexState& state, VertexId v) const override;

  VertexId root() const noexcept { return root_; }

 private:
  VertexId root_;
};

}  // namespace graphsd::algos
