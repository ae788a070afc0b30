#include "baselines/lumos_engine.hpp"

namespace graphsd::baselines {
namespace {

core::EngineOptions ToEngineOptions(const LumosEngine::Options& options) {
  core::EngineOptions out;
  out.max_iterations = options.max_iterations;
  out.record_per_round = options.record_per_round;
  out.scratch_dir = options.scratch_dir;
  out.engine_name = "Lumos";
  // Out-of-order future-value computation, but no state awareness and no
  // secondary-partition buffering.
  out.enable_selective = false;
  out.enable_cross_iteration = true;
  out.enable_buffering = false;
  // Lumos materializes its proactively-computed values to disk per round.
  out.model_lumos_propagation = true;
  // The modeled system issues its I/O serially: no prefetch pipeline.
  out.prefetch_depth = 0;
  return out;
}

}  // namespace

LumosEngine::LumosEngine(const partition::GridDataset& dataset)
    : LumosEngine(dataset, Options{}) {}

LumosEngine::LumosEngine(const partition::GridDataset& dataset,
                         Options options)
    : engine_(dataset, ToEngineOptions(options)) {}

Result<core::ExecutionReport> LumosEngine::Run(core::Program& program) {
  return engine_.Run(program);
}

}  // namespace graphsd::baselines
