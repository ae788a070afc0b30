// PageRank-Delta (push kind) — paper §5.1: "vertices are activated in an
// iteration only if they have accumulated enough changes in their PR
// values".
//
// Residual/push formulation: each vertex keeps (rank, residual).
// When active, it folds its residual into its rank and pushes
// d·residual/outdeg to each out-neighbor's residual; a vertex activates
// when its residual exceeds `epsilon`. Converges to the PageRank fixpoint.
// Residual addition is a commutative sum, so cross-iteration pushes are
// exact.
#pragma once

#include "core/program.hpp"
#include "core/slot.hpp"

namespace graphsd::algos {

class PageRankDelta final : public core::PushKernel<PageRankDelta> {
 public:
  /// With `relative_epsilon`, the activation threshold is
  /// `epsilon * (1-d)/|V|` — a fixed fraction of the per-vertex seed
  /// residual, which keeps the activity profile invariant across graph
  /// sizes. Otherwise `epsilon` is the absolute residual threshold.
  explicit PageRankDelta(double epsilon = 1e-9, double damping = 0.85,
                         std::uint32_t max_iterations = UINT32_MAX,
                         bool relative_epsilon = false)
      : epsilon_(epsilon),
        damping_(damping),
        max_iterations_(max_iterations),
        relative_epsilon_(relative_epsilon) {}

  std::string name() const override { return "pagerank_delta"; }
  std::uint32_t num_value_arrays() const override { return 2; }  // rank, res
  std::uint32_t max_iterations() const override { return max_iterations_; }

  void Init(core::VertexState& state, core::Frontier& initial) override;
  void MakeContribution(core::VertexState& state, VertexId v,
                        core::ContribSlot slot) const override;
  /// residual[dst] += contrib[src]; dst activates past the threshold.
  auto Combiner(core::VertexState& state, core::ContribSlot slot) const {
    return [contrib = state.contrib(slot).data(),
            residual = state.array(kResidual).data(),
            threshold = threshold_](VertexId src, VertexId dst, Weight /*w*/) {
      const double share = core::SlotToDouble(contrib[src]);
      if (share == 0.0) return false;
      return core::AddDouble(residual[dst], share) > threshold;
    };
  }
  double ValueOf(const core::VertexState& state, VertexId v) const override;

 private:
  static constexpr std::uint32_t kRank = 0;
  static constexpr std::uint32_t kResidual = 1;

  double epsilon_;
  double damping_;
  std::uint32_t max_iterations_;
  bool relative_epsilon_;
  double threshold_ = 0.0;  // resolved at Init
};

}  // namespace graphsd::algos
