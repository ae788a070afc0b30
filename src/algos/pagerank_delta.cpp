#include "algos/pagerank_delta.hpp"

namespace graphsd::algos {

using core::SlotFromDouble;
using core::SlotToDouble;

void PageRankDelta::Init(core::VertexState& state, core::Frontier& initial) {
  const VertexId n = state.num_vertices();
  auto rank = state.array(kRank);
  auto residual = state.array(kResidual);
  const double seed = (1.0 - damping_) / n;
  for (VertexId v = 0; v < n; ++v) {
    rank[v] = SlotFromDouble(0.0);
    residual[v] = SlotFromDouble(seed);
  }
  threshold_ = relative_epsilon_ ? epsilon_ * seed : epsilon_;
  initial.ActivateAll();
}

void PageRankDelta::MakeContribution(core::VertexState& state, VertexId v,
                                     core::ContribSlot slot) const {
  auto rank = state.array(kRank);
  auto residual = state.array(kResidual);
  const double res = SlotToDouble(residual[v]);
  // Consume: the residual moves into the rank and is split across edges.
  residual[v] = SlotFromDouble(0.0);
  rank[v] = SlotFromDouble(SlotToDouble(rank[v]) + res);
  const std::uint32_t degree = out_degrees_[v];
  state.contrib(slot)[v] =
      SlotFromDouble(degree == 0 ? 0.0 : damping_ * res / degree);
}

double PageRankDelta::ValueOf(const core::VertexState& state,
                              VertexId v) const {
  // Rank plus any unconsumed residual: the value the algorithm would settle
  // on if the remaining (sub-epsilon) mass were folded in.
  return SlotToDouble(state.array(kRank)[v]) +
         SlotToDouble(state.array(kResidual)[v]);
}

}  // namespace graphsd::algos
