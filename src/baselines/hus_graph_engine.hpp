// HUS-Graph re-implementation (Xu et al., TPDS'20) — comparison baseline.
//
// HUS-Graph's hybrid update strategy captures the number of active vertices
// and adaptively selects between an on-demand (row-oriented, active-edges
// only) and a full (sequential streaming) I/O model — the same state
// awareness GraphSD has — but it performs NO cross-iteration value
// computation and NO secondary sub-block buffering: every vertex value is
// produced by exactly one iteration's processing, and every iteration
// reloads the data it touches.
//
// Implementation note: this is GraphSD's driver with cross-iteration and
// buffering disabled, which is precisely the subset of mechanisms HUS-Graph
// has; its separate double-copy preprocessing pipeline lives in
// partition/baseline_preprocessors.hpp.
#pragma once

#include "core/engine.hpp"

namespace graphsd::baselines {

class HusGraphEngine {
 public:
  struct Options {
    std::uint32_t max_iterations = UINT32_MAX;
    bool record_per_round = true;
    std::string scratch_dir;
  };

  explicit HusGraphEngine(const partition::GridDataset& dataset);
  HusGraphEngine(const partition::GridDataset& dataset, Options options);

  Result<core::ExecutionReport> Run(core::Program& program);

  const core::VertexState* state() const noexcept { return engine_.state(); }

 private:
  core::GraphSDEngine engine_;
};

}  // namespace graphsd::baselines
