// Lumos re-implementation (Vora, ATC'19) — comparison baseline.
//
// Lumos performs dependency-driven out-of-order execution: every graph load
// proactively computes next-iteration values for the partitions whose BSP
// dependencies are already satisfied (our FCIU column-order mechanism models
// its propagation along increasing partitions). However, Lumos is NOT
// state-aware: it streams every edge every round regardless of how small
// the active set is, and it keeps no priority buffer for the secondary
// partitions it reads twice.
//
// Implementation note: GraphSD's driver with the on-demand model and the
// buffer disabled; cross-iteration stays on. Its sort-free preprocessing
// pipeline lives in partition/baseline_preprocessors.hpp.
#pragma once

#include "core/engine.hpp"

namespace graphsd::baselines {

class LumosEngine {
 public:
  struct Options {
    std::uint32_t max_iterations = UINT32_MAX;
    bool record_per_round = true;
    std::string scratch_dir;
  };

  explicit LumosEngine(const partition::GridDataset& dataset);
  LumosEngine(const partition::GridDataset& dataset, Options options);

  Result<core::ExecutionReport> Run(core::Program& program);

  const core::VertexState* state() const noexcept { return engine_.state(); }

 private:
  core::GraphSDEngine engine_;
};

}  // namespace graphsd::baselines
