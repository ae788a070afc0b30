// Breadth-First Search (push kind): hop count from a root via min-level
// propagation. The paper's motivating example of a shrinking frontier.
#pragma once

#include "core/program.hpp"
#include "core/slot.hpp"

namespace graphsd::algos {

class Bfs final : public core::PushKernel<Bfs> {
 public:
  explicit Bfs(VertexId root) : root_(root) {}

  std::string name() const override { return "bfs"; }
  std::uint32_t num_value_arrays() const override { return 1; }  // level

  void Init(core::VertexState& state, core::Frontier& initial) override;
  void MakeContribution(core::VertexState& state, VertexId v,
                        core::ContribSlot slot) const override;
  /// Level relaxation: level[dst] = min(level[dst], level[src] + 1).
  auto Combiner(core::VertexState& state, core::ContribSlot slot) const {
    return [contrib = state.contrib(slot).data(),
            level = state.array(0).data()](VertexId src, VertexId dst,
                                           Weight /*w*/) {
      const std::uint64_t src_level = contrib[src];
      if (src_level == UINT64_MAX) return false;
      return core::MinU64(level[dst], src_level + 1);
    };
  }
  double ValueOf(const core::VertexState& state, VertexId v) const override;

  /// Level of `v` after a run; UINT64_MAX when unreached.
  static std::uint64_t LevelOf(const core::VertexState& state, VertexId v) {
    return state.array(0)[v];
  }

 private:
  VertexId root_;
};

}  // namespace graphsd::algos
