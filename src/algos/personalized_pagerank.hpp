// Personalized PageRank (push kind): PageRank with restart at a single
// source — the recommendation/similarity workload (paper §1 cites
// event-recommendation social networks).
//
// Same residual-push machinery as PageRank-Delta, but all the initial
// residual mass sits on the source: rank converges to the stationary
// distribution of a random walk that teleports back to `source` with
// probability 1-d. Activity starts at one vertex and radiates — the most
// scheduler-friendly activity profile of the library (mostly on-demand).
#pragma once

#include "core/program.hpp"
#include "core/slot.hpp"

namespace graphsd::algos {

class PersonalizedPageRank final
    : public core::PushKernel<PersonalizedPageRank> {
 public:
  PersonalizedPageRank(VertexId source, double epsilon = 1e-10,
                       double damping = 0.85)
      : source_(source), epsilon_(epsilon), damping_(damping) {}

  std::string name() const override { return "ppr"; }
  std::uint32_t num_value_arrays() const override { return 2; }  // rank, res

  void Init(core::VertexState& state, core::Frontier& initial) override;
  void MakeContribution(core::VertexState& state, VertexId v,
                        core::ContribSlot slot) const override;
  /// residual[dst] += contrib[src]; dst activates past epsilon.
  auto Combiner(core::VertexState& state, core::ContribSlot slot) const {
    return [contrib = state.contrib(slot).data(),
            residual = state.array(kResidual).data(),
            epsilon = epsilon_](VertexId src, VertexId dst, Weight /*w*/) {
      const double share = core::SlotToDouble(contrib[src]);
      if (share == 0.0) return false;
      return core::AddDouble(residual[dst], share) > epsilon;
    };
  }
  double ValueOf(const core::VertexState& state, VertexId v) const override;

  VertexId source() const noexcept { return source_; }

 private:
  static constexpr std::uint32_t kRank = 0;
  static constexpr std::uint32_t kResidual = 1;

  VertexId source_;
  double epsilon_;
  double damping_;
};

}  // namespace graphsd::algos
