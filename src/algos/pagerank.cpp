#include "algos/pagerank.hpp"

namespace graphsd::algos {

using core::SlotFromDouble;
using core::SlotToDouble;

void PageRank::Init(core::VertexState& state, core::Frontier& initial) {
  const VertexId n = state.num_vertices();
  auto rank = state.array(0);
  for (VertexId v = 0; v < n; ++v) rank[v] = SlotFromDouble(1.0 / n);
  initial.ActivateAll();  // informational; gather runs all-active anyway
}

void PageRank::MakeContribution(core::VertexState& state, VertexId v,
                                core::ContribSlot slot) const {
  const double rank = SlotToDouble(state.array(0)[v]);
  const std::uint32_t degree = (*out_degrees_)[v];
  state.contrib(slot)[v] =
      SlotFromDouble(degree == 0 ? 0.0 : damping_ * rank / degree);
}

void PageRank::ResetAccum(core::VertexState& state,
                          core::AccumSlot a) const {
  const double base = (1.0 - damping_) / state.num_vertices();
  auto accum = state.accum(a);
  for (auto& slot : accum) slot = SlotFromDouble(base);
}

void PageRank::Finalize(core::VertexState& state, VertexId begin, VertexId end,
                        core::AccumSlot a) const {
  auto rank = state.array(0);
  auto accum = state.accum(a);
  for (VertexId v = begin; v < end; ++v) rank[v] = accum[v];
}

double PageRank::ValueOf(const core::VertexState& state, VertexId v) const {
  return SlotToDouble(state.array(0)[v]);
}

}  // namespace graphsd::algos
