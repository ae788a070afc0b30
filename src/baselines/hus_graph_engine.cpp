#include "baselines/hus_graph_engine.hpp"

namespace graphsd::baselines {
namespace {

core::EngineOptions ToEngineOptions(const HusGraphEngine::Options& options) {
  core::EngineOptions out;
  out.max_iterations = options.max_iterations;
  out.record_per_round = options.record_per_round;
  out.scratch_dir = options.scratch_dir;
  out.engine_name = "HUS-Graph";
  // Hybrid update strategy: state-aware model selection, nothing more.
  out.enable_selective = true;
  out.enable_cross_iteration = false;
  out.enable_buffering = false;
  // The modeled system issues its I/O serially: no prefetch pipeline.
  out.prefetch_depth = 0;
  return out;
}

}  // namespace

HusGraphEngine::HusGraphEngine(const partition::GridDataset& dataset)
    : HusGraphEngine(dataset, Options{}) {}

HusGraphEngine::HusGraphEngine(const partition::GridDataset& dataset,
                               Options options)
    : engine_(dataset, ToEngineOptions(options)) {}

Result<core::ExecutionReport> HusGraphEngine::Run(core::Program& program) {
  return engine_.Run(program);
}

}  // namespace graphsd::baselines
