// PageRank (gather kind).
//
// Synchronous BSP PageRank over `iterations` rounds:
//   rank_{t+1}[v] = (1-d)/|V| + d * sum_{u->v} rank_t[u] / outdeg(u)
// rank_0 = 1/|V|; dangling mass is dropped (GridGraph-family convention).
// Every vertex is active every iteration, so the scheduler always selects
// the full I/O model and FCIU folds two rounds into each graph load.
#pragma once

#include "core/program.hpp"
#include "core/slot.hpp"

namespace graphsd::algos {

class PageRank final : public core::GatherKernel<PageRank> {
 public:
  explicit PageRank(std::uint32_t iterations, double damping = 0.85)
      : iterations_(iterations), damping_(damping) {}

  std::string name() const override { return "pagerank"; }
  std::uint32_t num_value_arrays() const override { return 1; }  // rank
  std::uint32_t max_iterations() const override { return iterations_; }

  void Init(core::VertexState& state, core::Frontier& initial) override;
  void MakeContribution(core::VertexState& state, VertexId v,
                        core::ContribSlot slot) const override;
  void ResetAccum(core::VertexState& state, core::AccumSlot a) const override;
  /// accum(a)[dst] += contrib(c)[src].
  auto Combiner(core::VertexState& state, core::ContribSlot c,
                core::AccumSlot a) const {
    return [contrib = state.contrib(c).data(),
            accum = state.accum(a).data()](VertexId src, VertexId dst,
                                           Weight /*w*/) {
      const double share = core::SlotToDouble(contrib[src]);
      if (share != 0.0) core::AddDouble(accum[dst], share);
    };
  }
  void Finalize(core::VertexState& state, VertexId begin, VertexId end,
                core::AccumSlot a) const override;
  double ValueOf(const core::VertexState& state, VertexId v) const override;

 private:
  std::uint32_t iterations_;
  double damping_;
};

}  // namespace graphsd::algos
