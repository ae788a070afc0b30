#include "algos/widest_path.hpp"

#include <limits>

namespace graphsd::algos {

using core::SlotFromDouble;
using core::SlotToDouble;

void WidestPath::Init(core::VertexState& state, core::Frontier& initial) {
  GRAPHSD_CHECK(root_ < state.num_vertices());
  auto width = state.array(0);
  for (auto& slot : width) slot = SlotFromDouble(0.0);  // unreached: width 0
  width[root_] = SlotFromDouble(std::numeric_limits<double>::infinity());
  initial.Activate(root_);
}

void WidestPath::MakeContribution(core::VertexState& state, VertexId v,
                                  core::ContribSlot slot) const {
  state.contrib(slot)[v] = state.array(0)[v];
}

double WidestPath::ValueOf(const core::VertexState& state, VertexId v) const {
  return SlotToDouble(state.array(0)[v]);
}

}  // namespace graphsd::algos
