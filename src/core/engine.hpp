// GraphSD engine: the Algorithm-1 driver.
//
// Per iteration it consults the state-aware scheduler (§4.1) and dispatches
// to SCIU (on-demand I/O) or FCIU (full I/O); FCIU rounds execute two BSP
// iterations per load and use the priority sub-block buffer (§4.3). In semi
// mode it may also pick a semi round: a plain full round over a
// skip-filtered plan (DESIGN.md §14). One RunScope owns the run lifecycle
// for both the push and the gather round loop.
//
// The option switches correspond exactly to the paper's ablations (§5.4):
//   enable_cross_iteration=false  -> GraphSD-b1
//   enable_selective=false        -> GraphSD-b2 / GraphSD-b3
//   force_on_demand=true          -> GraphSD-b4
//   enable_buffering=false        -> Figure 12's "w/o buffering"
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>

#include "core/program.hpp"
#include "core/report.hpp"
#include "partition/grid_dataset.hpp"
#include "util/cancellation.hpp"

namespace graphsd::obs {
class MetricsRegistry;
class TraceBuffer;
}  // namespace graphsd::obs

namespace graphsd::io {
class PrefetchPipeline;
}  // namespace graphsd::io

namespace graphsd::core {

class SubBlockBuffer;
class SkipSummaryStore;

/// Per-round I/O-model directive for EngineOptions::model_override.
/// kAuto defers to the state-aware scheduler (or the force_on_demand /
/// enable_selective switches); kOnDemand, kFull and kSemi pin the round to
/// the SCIU, full-streaming and semi-external models respectively, skipping
/// the cost evaluation entirely.
enum class RoundModelChoice : std::uint8_t { kAuto, kOnDemand, kFull, kSemi };

struct EngineOptions {
  /// Cross-iteration value computation (SCIU step 3 / FCIU second half).
  bool enable_cross_iteration = true;
  /// State-aware scheduling: allow the on-demand I/O model at all.
  bool enable_selective = true;
  /// Force the on-demand model every iteration (ablation b4).
  bool force_on_demand = false;
  /// Semi-external-memory mode (DESIGN.md §14): the vertex state stays
  /// RAM-resident across rounds — no per-round |V|·N state read/write, one
  /// final persist at run end — and the semi-external update model (skip
  /// sub-blocks whose active-source summary proves them idle, before any
  /// edge I/O) joins SCIU and full streaming as a third costed scheduler
  /// choice. Push programs only; gather runs ignore it.
  bool semi_external = false;
  /// The §4.3 priority buffer for secondary sub-blocks.
  bool enable_buffering = true;
  /// Buffer capacity; 0 = 5 % of the dataset's edge payload (the paper's
  /// memory-budget setting).
  std::uint64_t buffer_capacity_bytes = 0;
  /// SCIU edge-retention budget for its cross-iteration step; 0 = same 5 %.
  std::uint64_t memory_budget_bytes = 0;
  /// Asynchronous prefetch: sub-blocks (FCIU) and coalesced edge runs
  /// (SCIU) load on dedicated reader threads (one on a modeled device,
  /// io::Device::reads_in_flight() on a real one) up to this many fetch
  /// units ahead of the applies. 0 = fully synchronous I/O. Results, I/O
  /// byte counts and buffer hit/miss accounting are identical at any depth.
  std::size_t prefetch_depth = 4;
  /// Hard iteration cap on top of the program's own budget.
  std::uint32_t max_iterations = UINT32_MAX;
  /// Record the per-round series (Figure 10).
  bool record_per_round = true;
  /// Model Lumos's propagation materialization: Lumos's out-of-order
  /// execution writes the proactively-computed next-iteration values to
  /// disk per round and reads them back in the next round (GraphSD keeps
  /// them in the in-memory value arrays instead). The Lumos baseline
  /// enables this; it costs one |V|·N write + read per cross-iteration
  /// round.
  bool model_lumos_propagation = false;
  /// Directory for the vertex-value file; empty = the dataset directory.
  std::string scratch_dir;
  /// Name stamped into reports.
  std::string engine_name = "GraphSD";
  /// Phase-trace sink (non-owning; must outlive the engine run). Null
  /// disables tracing. Strictly passive: attaching a buffer changes no
  /// bytes, decisions or results (asserted by the prefetch-equivalence
  /// suite).
  obs::TraceBuffer* trace = nullptr;
  /// Metrics sink (non-owning; must outlive the engine run). Null disables
  /// metrics. Engine counters accumulate per run; device/buffer/prefetch
  /// levels are published as end-of-run gauge snapshots. Passive, like
  /// `trace`.
  obs::MetricsRegistry* metrics = nullptr;
  /// Differential-testing hook (DESIGN.md §11): consulted with each push
  /// round's first iteration before the scheduler. Null means kAuto for
  /// every round. A kOnDemand directive still honors index availability
  /// and on-demand degradation (the round falls back to full streaming
  /// when the selective path is unusable).
  std::function<RoundModelChoice(std::uint32_t first_iteration)>
      model_override;
  /// Differential-testing hook (DESIGN.md §11): invoked after Init with
  /// (0, initial frontier) and after every committed push round with the
  /// next iteration number and the frontier entering it. Only reflects
  /// plain-BSP iteration boundaries when enable_cross_iteration is false
  /// (cross-iteration rounds pre-execute future work, splitting the next
  /// frontier across the active and pre-activated sets). Must not mutate
  /// engine state.
  std::function<void(std::uint32_t next_iteration, const Frontier& active)>
      frontier_probe;

  // --- Run lifecycle (DESIGN.md §12) -------------------------------------
  /// Non-empty enables crash-safe checkpointing: a GSCK checkpoint (vertex
  /// arrays + frontiers + iteration + cumulative measurement baseline) is
  /// written into this directory at committed iteration boundaries and once
  /// more when the run finishes or is cancelled. Two slots are retained;
  /// writes are atomic (write-temp -> fsync -> rename). Checkpoint I/O goes
  /// through the plain filesystem, NOT the accounted device, so modeled
  /// I/O, IoStats and scheduler decisions are unperturbed.
  std::string checkpoint_dir;
  /// Write a checkpoint every N committed BSP iterations (clamped to >= 1).
  std::uint32_t checkpoint_every = 1;
  /// Resume from the latest valid checkpoint in `checkpoint_dir`. A
  /// checkpoint from a different dataset build or algorithm is refused with
  /// kFailedPrecondition; a directory with only torn/corrupt slots fails
  /// with kCorruptData; an empty directory starts fresh.
  bool resume = false;
  /// External cooperative-cancellation token (non-owning; may be tripped
  /// from a signal handler). A tripped token stops the run at the next
  /// poll point, rolls back to the last committed iteration boundary,
  /// writes a final checkpoint (when checkpointing), and returns a partial
  /// report with `cancelled` set — never an error.
  const CancellationToken* cancel = nullptr;
  /// Cancel the run this many wall-clock seconds after it starts
  /// (0 = no deadline). Cancels through the same mechanism as `cancel`.
  double deadline_seconds = 0;

  // --- Engine re-entry / resource sharing (DESIGN.md §13) -----------------
  /// Shared sub-block buffer (non-owning; must outlive the run). When set,
  /// the run consumes and donates blocks through it instead of building a
  /// private buffer, so one physical sub-block load can feed many logical
  /// runs (`graphsd serve`). Entries a run is reading are pinned and cannot
  /// be evicted by concurrent runs. `enable_buffering` and
  /// `buffer_capacity_bytes` are ignored. The report's buffer counters
  /// become this run's delta of the shared counters — exact when runs are
  /// serial, fleet-approximate under true concurrency (the counters are
  /// buffer-global).
  SubBlockBuffer* shared_buffer = nullptr;
  /// Shared prefetch pipeline (non-owning; must outlive the run). When
  /// set, the run's read plan is submitted through it instead of a private
  /// per-run pipeline, so concurrent runs share its readers and one
  /// submission order. The pipeline's cancellation token belongs to its
  /// owner (the service installs its shutdown token); this run's own
  /// cancel/deadline still stops the run at fetch boundaries.
  io::PrefetchPipeline* shared_prefetch = nullptr;
  /// Shared active-source summary store (non-owning; must outlive the run).
  /// Summaries are dataset-static, so the `graphsd serve` registry keeps
  /// one per dataset: every run records what it decodes and skips what any
  /// run has learned. Null: the engine builds a private store when
  /// semi_external is set (and records nothing otherwise).
  SkipSummaryStore* shared_summaries = nullptr;
};

class GraphSDEngine {
 public:
  /// The dataset must outlive the engine.
  explicit GraphSDEngine(const partition::GridDataset& dataset,
                         EngineOptions options = {});

  /// Executes `program` to completion (frontier drained or iteration budget
  /// exhausted) and returns the measurement report.
  Result<ExecutionReport> Run(Program& program);

  /// Final vertex state of the last Run (null before any Run).
  const VertexState* state() const noexcept { return state_.get(); }

  const EngineOptions& options() const noexcept { return options_; }

 private:
  class RunScope;

  Result<ExecutionReport> RunPush(PushProgram& program);
  Result<ExecutionReport> RunGather(GatherProgram& program);
  std::string ValuesPath(const Program& program) const;

  const partition::GridDataset* dataset_;
  EngineOptions options_;
  std::unique_ptr<VertexState> state_;
};

}  // namespace graphsd::core
