// Widest path / maximum-bottleneck path (push kind, weighted).
//
// width[dst] = max(width[dst], min(width[src], w)). The max-min combine is
// commutative, associative and idempotent — the third monotone combine
// class (after min-plus SSSP and min-label CC) — exercising the
// programming model beyond the paper's four algorithms. Classic uses:
// maximum-bandwidth routing, bottleneck capacity planning.
#pragma once

#include <algorithm>
#include <cmath>

#include "core/program.hpp"
#include "core/slot.hpp"

namespace graphsd::algos {

class WidestPath final : public core::PushKernel<WidestPath> {
 public:
  explicit WidestPath(VertexId root) : root_(root) {}

  std::string name() const override { return "widest_path"; }
  bool needs_weights() const override { return true; }
  std::uint32_t num_value_arrays() const override { return 1; }  // width

  void Init(core::VertexState& state, core::Frontier& initial) override;
  void MakeContribution(core::VertexState& state, VertexId v,
                        core::ContribSlot slot) const override;
  /// width[dst] = max(width[dst], min(width[src], w)).
  auto Combiner(core::VertexState& state, core::ContribSlot slot) const {
    return [contrib = state.contrib(slot).data(),
            width = state.array(0).data()](VertexId src, VertexId dst,
                                           Weight w) {
      const double src_width = core::SlotToDouble(contrib[src]);
      if (src_width <= 0.0) return false;
      // The root's width is +inf, so the bottleneck is finite whenever the
      // weight is; an inf/NaN weight on a corrupted dataset must not
      // install a non-finite width that would then dominate every later
      // max.
      const double bottleneck = std::min(src_width, static_cast<double>(w));
      if (!std::isfinite(bottleneck) || bottleneck <= 0.0) return false;
      return core::MaxDouble(width[dst], bottleneck);
    };
  }
  double ValueOf(const core::VertexState& state, VertexId v) const override;

 private:
  VertexId root_;
};

}  // namespace graphsd::algos
