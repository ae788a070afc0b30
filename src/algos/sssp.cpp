#include "algos/sssp.hpp"

#include <limits>

namespace graphsd::algos {

using core::SlotFromDouble;
using core::SlotToDouble;

void Sssp::Init(core::VertexState& state, core::Frontier& initial) {
  GRAPHSD_CHECK(root_ < state.num_vertices());
  auto dist = state.array(0);
  const double inf = std::numeric_limits<double>::infinity();
  for (auto& slot : dist) slot = SlotFromDouble(inf);
  dist[root_] = SlotFromDouble(0.0);
  initial.Activate(root_);
}

void Sssp::MakeContribution(core::VertexState& state, VertexId v,
                            core::ContribSlot slot) const {
  state.contrib(slot)[v] = state.array(0)[v];
}

double Sssp::ValueOf(const core::VertexState& state, VertexId v) const {
  return SlotToDouble(state.array(0)[v]);
}

}  // namespace graphsd::algos
