// Connected Components via min-label propagation (push kind).
//
// label_0[v] = v; an edge (u, v) lowers label[v] to label[u] when smaller.
// For *weakly* connected components the dataset must be built from a
// symmetrized edge list (see graphsd::Symmetrize); on a directed dataset
// the result is directional label reachability, which is what every
// GridGraph-family system computes in that case.
#pragma once

#include "core/program.hpp"
#include "core/slot.hpp"

namespace graphsd::algos {

class ConnectedComponents final
    : public core::PushKernel<ConnectedComponents> {
 public:
  ConnectedComponents() = default;

  std::string name() const override { return "cc"; }
  std::uint32_t num_value_arrays() const override { return 1; }  // label

  void Init(core::VertexState& state, core::Frontier& initial) override;
  void MakeContribution(core::VertexState& state, VertexId v,
                        core::ContribSlot slot) const override;
  /// Min-label: label[dst] = min(label[dst], label[src]).
  auto Combiner(core::VertexState& state, core::ContribSlot slot) const {
    return [contrib = state.contrib(slot).data(),
            label = state.array(0).data()](VertexId src, VertexId dst,
                                           Weight /*w*/) {
      return core::MinU64(label[dst], contrib[src]);
    };
  }
  double ValueOf(const core::VertexState& state, VertexId v) const override;

  /// Component label of `v` after a run.
  static VertexId LabelOf(const core::VertexState& state, VertexId v) {
    return static_cast<VertexId>(state.array(0)[v]);
  }
};

}  // namespace graphsd::algos
