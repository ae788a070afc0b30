#include "algos/connected_components.hpp"

namespace graphsd::algos {

void ConnectedComponents::Init(core::VertexState& state,
                               core::Frontier& initial) {
  auto label = state.array(0);
  for (VertexId v = 0; v < state.num_vertices(); ++v) label[v] = v;
  initial.ActivateAll();
}

void ConnectedComponents::MakeContribution(core::VertexState& state,
                                           VertexId v,
                                           core::ContribSlot slot) const {
  state.contrib(slot)[v] = state.array(0)[v];
}

double ConnectedComponents::ValueOf(const core::VertexState& state,
                                    VertexId v) const {
  return static_cast<double>(state.array(0)[v]);
}

}  // namespace graphsd::algos
