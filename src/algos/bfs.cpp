#include "algos/bfs.hpp"

namespace graphsd::algos {

void Bfs::Init(core::VertexState& state, core::Frontier& initial) {
  GRAPHSD_CHECK(root_ < state.num_vertices());
  auto level = state.array(0);
  for (auto& slot : level) slot = UINT64_MAX;
  level[root_] = 0;
  initial.Activate(root_);
}

void Bfs::MakeContribution(core::VertexState& state, VertexId v,
                           core::ContribSlot slot) const {
  state.contrib(slot)[v] = state.array(0)[v];
}

double Bfs::ValueOf(const core::VertexState& state, VertexId v) const {
  return static_cast<double>(state.array(0)[v]);
}

}  // namespace graphsd::algos
