#include "algos/personalized_pagerank.hpp"

namespace graphsd::algos {

using core::SlotFromDouble;
using core::SlotToDouble;

void PersonalizedPageRank::Init(core::VertexState& state,
                                core::Frontier& initial) {
  GRAPHSD_CHECK(source_ < state.num_vertices());
  auto rank = state.array(kRank);
  auto residual = state.array(kResidual);
  for (VertexId v = 0; v < state.num_vertices(); ++v) {
    rank[v] = SlotFromDouble(0.0);
    residual[v] = SlotFromDouble(0.0);
  }
  residual[source_] = SlotFromDouble(1.0);
  initial.Activate(source_);
}

void PersonalizedPageRank::MakeContribution(core::VertexState& state,
                                            VertexId v,
                                            core::ContribSlot slot) const {
  auto rank = state.array(kRank);
  auto residual = state.array(kResidual);
  const double res = SlotToDouble(residual[v]);
  residual[v] = SlotFromDouble(0.0);
  // The restart probability's share settles into the rank; the rest walks.
  rank[v] = SlotFromDouble(SlotToDouble(rank[v]) + (1.0 - damping_) * res);
  const std::uint32_t degree = (*out_degrees_)[v];
  state.contrib(slot)[v] =
      SlotFromDouble(degree == 0 ? 0.0 : damping_ * res / degree);
}

double PersonalizedPageRank::ValueOf(const core::VertexState& state,
                                     VertexId v) const {
  return SlotToDouble(state.array(kRank)[v]) +
         (1.0 - damping_) * SlotToDouble(state.array(kResidual)[v]);
}

}  // namespace graphsd::algos
