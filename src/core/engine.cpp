#include "core/engine.hpp"

#include <algorithm>

#include "core/checkpoint.hpp"
#include "core/fciu_executor.hpp"
#include "core/scheduler.hpp"
#include "core/sciu_executor.hpp"
#include "core/skip_summary.hpp"
#include "core/sub_block_buffer.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "util/clock.hpp"
#include "util/logging.hpp"
#include "util/str_format.hpp"

namespace graphsd::core {

/// One engine run's lifecycle, shared by push and gather runs: the buffer,
/// prefetch pipeline and skip summaries (private, or the caller's shared
/// tier — DESIGN.md §13), the executors' ExecContext, the run token with
/// its deadline, checkpoint store and async writer, resume and restore,
/// periodic and final checkpoints (DESIGN.md §12), and the
/// end-of-run folding of buffer/decode counters and metrics into the
/// report. RunPush and RunGather keep only their round loops.
class GraphSDEngine::RunScope {
 public:
  /// `active`/`preact` are the push frontiers a checkpoint persists and a
  /// resume restores (both null for gather runs).
  RunScope(const GraphSDEngine& engine, const Program& program,
           Frontier* active, Frontier* preact)
      : dataset_(*engine.dataset_),
        options_(engine.options_),
        program_(program),
        gather_(program.kind() == ProgramKind::kGather),
        state_(*engine.state_),
        active_(active),
        preact_(preact),
        values_path_(engine.ValuesPath(program)),
        store_(options_.checkpoint_dir),
        writer_(&store_) {
    const auto& manifest = dataset_.manifest();
    const std::uint64_t default_budget =
        std::max<std::uint64_t>(1, manifest.TotalEdgeBytes() / 20);
    // Resource sharing (DESIGN.md §13): a caller-provided buffer/pipeline
    // (the `graphsd serve` shared tier) replaces the private per-run ones.
    // Counter reporting switches to deltas against the entry snapshot so
    // the report still describes this run, not the buffer's whole life.
    buffer_ = options_.shared_buffer;
    if (buffer_ == nullptr) {
      local_buffer_ = std::make_unique<SubBlockBuffer>(
          options_.enable_buffering ? (options_.buffer_capacity_bytes != 0
                                           ? options_.buffer_capacity_bytes
                                           : default_budget)
                                    : 0);
      buffer_ = local_buffer_.get();
    }
    prefetch_ = options_.shared_prefetch;
    if (prefetch_ == nullptr) {
      local_prefetch_ = std::make_unique<io::PrefetchPipeline>(
          options_.prefetch_depth, dataset_.device().reads_in_flight());
      prefetch_ = local_prefetch_.get();
    }
    // Skip summaries (DESIGN.md §14): shared store when the caller provides
    // one (the serve registry's per-dataset tier), private for a solo
    // semi-external push run, absent otherwise (zero overhead on classic
    // runs). Gather runs never choose the semi model but still record into
    // a shared store.
    SkipSummaryStore* summaries = options_.shared_summaries;
    if (summaries == nullptr && options_.semi_external && !gather_) {
      local_summaries_ = std::make_unique<SkipSummaryStore>(manifest);
      summaries = local_summaries_.get();
    }
    // Run-local cancellation: chains the caller's token (signal handlers
    // trip that one) and arms the optional deadline. Executors poll it at
    // fetch boundaries; each prefetch stream skips its queued reads when it
    // trips.
    token_.set_parent(options_.cancel);
    if (options_.deadline_seconds > 0) {
      token_.SetDeadline(options_.deadline_seconds);
    }

    ctx_.dataset = &dataset_;
    ctx_.buffer = buffer_;
    ctx_.prefetch = prefetch_;
    ctx_.trace = options_.trace;
    ctx_.memory_budget_bytes = options_.memory_budget_bytes != 0
                                   ? options_.memory_budget_bytes
                                   : default_budget;
    ctx_.cancel = &token_;
    ctx_.summaries = summaries;

    if (checkpointing()) fingerprint_ = DatasetFingerprint(manifest);
    report_.engine = options_.engine_name;
    report_.algorithm = program.name();
    report_.dataset = manifest.name;
    // Overlap charging is only honest when the pipeline actually overlaps.
    report_.overlap_io = options_.overlap_io && prefetch_->enabled();
    external_before_ = ExternalCounters();
  }

  // The token and checkpoint writer are referenced by address from threads
  // and from `ctx_`.
  RunScope(const RunScope&) = delete;
  RunScope& operator=(const RunScope&) = delete;

  const ExecContext& ctx() const noexcept { return ctx_; }
  ExecutionReport& report() noexcept { return report_; }

  /// Reloads the committed values file (accounted state I/O).
  Status LoadState(std::uint32_t iteration) const {
    obs::TraceSpan span(options_.trace, "state-load", iteration);
    return state_.Load(dataset_.device(), values_path_);
  }
  /// Writes the values back to the values file (accounted state I/O).
  Status PersistState(std::uint32_t iteration) const {
    obs::TraceSpan span(options_.trace, "write-back", iteration);
    return state_.Persist(dataset_.device(), values_path_);
  }
  /// Lumos's propagation materialization (EngineOptions::
  /// model_lumos_propagation): one |V|·N write + read of the values.
  Status PropagateLumos() const {
    const std::string path = values_path_ + ".prop";
    GRAPHSD_RETURN_IF_ERROR(state_.Persist(dataset_.device(), path));
    return state_.Load(dataset_.device(), path);
  }

  /// Opens a round's accounting window: device counters, modeled clock and
  /// wall time from here to CommitRound().
  void BeginRound() {
    round_io_ = dataset_.device().stats().Snapshot();
    round_clock_ = dataset_.device().clock().Seconds();
    round_wall_.Restart();
  }

  /// Closes the window, folding its deltas into `stat` and the report. The
  /// pipelined charge max(compute, io) applies under overlap, otherwise the
  /// serial sum (baselines, ablations).
  void CommitRound(RoundStat& stat) {
    const io::Device& device = dataset_.device();
    const auto io_delta = device.stats().Snapshot() - round_io_;
    stat.io_seconds = device.clock().Seconds() - round_clock_;
    stat.compute_seconds = round_wall_.Seconds();
    stat.overlapped_seconds =
        report_.overlap_io
            ? io::IoCostModel::OverlapSeconds(stat.io_seconds,
                                              stat.compute_seconds)
            : stat.io_seconds + stat.compute_seconds;
    stat.read_bytes = io_delta.TotalReadBytes();
    stat.write_bytes = io_delta.TotalWriteBytes();
    report_.io += io_delta;
    report_.io_seconds += stat.io_seconds;
    report_.compute_seconds += stat.compute_seconds;
    report_.overlapped_seconds += stat.overlapped_seconds;
    report_.scheduler_seconds += stat.scheduler_seconds;
    report_.blocks_skipped += stat.blocks_skipped;
    report_.blocks_skipped_bytes += stat.blocks_skipped_bytes;
    if (stat.model == RoundModel::kSemi) ++report_.semi_rounds;
    ++report_.rounds;
    if (options_.record_per_round) report_.per_round.push_back(stat);
  }

  /// Restores the newest valid checkpoint when resuming, then persists the
  /// starting values. Returns the iteration the run starts from.
  Result<std::uint32_t> Start() {
    std::uint32_t iteration = 0;
    if (checkpointing() && options_.resume) {
      obs::TraceSpan span(options_.trace, "resume", 0);
      auto loaded = store_.LoadLatest();
      if (loaded.ok()) {
        GRAPHSD_RETURN_IF_ERROR(Restore(loaded.value()));
        iteration = loaded.value().iteration;
        last_checkpoint_ = iteration;
      } else if (loaded.status().code() != StatusCode::kNotFound) {
        // Slots exist but none is valid (all torn/corrupt) — surface it
        // rather than silently recomputing from scratch.
        return loaded.status();
      }
    }
    GRAPHSD_RETURN_IF_ERROR(state_.Persist(dataset_.device(), values_path_));
    return iteration;
  }

  /// Loop-top poll: everything is committed there, so a tripped token
  /// just marks the report cancelled and stops before the next round.
  bool StopRequested() {
    if (!token_.cancelled()) return false;
    MarkCancelled();
    return true;
  }

  void MarkCancelled() {
    report_.cancelled = true;
    report_.cancel_reason = token_.reason();
  }

  /// Checkpoints the committed boundary `iterations` when one is due.
  Status AfterRound(std::uint32_t iterations) {
    if (checkpointing() &&
        iterations - last_checkpoint_ >=
            std::max<std::uint32_t>(1, options_.checkpoint_every)) {
      return WriteCheckpoint(iterations);
    }
    return Status::Ok();
  }

  /// Final checkpoint (on cancellation this is what `--resume` picks up;
  /// on completion it makes a later resume a no-op re-run), then the
  /// end-of-run folding into the report and metrics.
  Result<ExecutionReport> Finish(std::uint32_t iterations) {
    if (report_.cancelled) {
      GRAPHSD_LOG_INFO("run cancelled at iteration %u (%s); partial report",
                       iterations, report_.cancel_reason.c_str());
    }
    if (checkpointing() && iterations != last_checkpoint_) {
      GRAPHSD_RETURN_IF_ERROR(WriteCheckpoint(iterations));
    }
    if (checkpointing()) {
      // Join the background writer: the final boundary must be durable
      // before the report (cancelled or complete) is returned. Bytes are
      // accounted here because superseded frames never reach disk.
      WallTimer flush_timer;
      GRAPHSD_RETURN_IF_ERROR(writer_.Flush());
      report_.checkpoint_seconds += flush_timer.Seconds();
    }

    report_.iterations = iterations;
    report_.codec = dataset_.codec_name();
    // The writer is this run's own, so its count is this run's delta.
    report_.checkpoints_dropped = writer_.frames_dropped();
    FoldRunCounters(report_);
    if (options_.metrics != nullptr) PublishMetrics(*options_.metrics);
    return std::move(report_);
  }

 private:
  /// End-of-run metrics publication. Engine totals accumulate as counters
  /// (one Add per run); lifecycle counters are deltas vs the resumed base so
  /// they reflect this process's work only; the I/O-stack components
  /// publish gauge snapshots. Strictly passive: reads counters, performs no
  /// I/O, feeds nothing back.
  void PublishMetrics(obs::MetricsRegistry& metrics) const {
    const ExecutionReport& report = report_;
    metrics.GetCounter("engine.runs").Add(1);
    metrics.GetCounter("engine.iterations").Add(report.iterations);
    metrics.GetCounter("engine.rounds").Add(report.rounds);
    metrics.GetCounter("engine.degraded_rounds").Add(report.degraded_rounds);
    metrics.GetCounter("engine.frames_decoded").Add(report.frames_decoded);
    metrics.GetCounter("engine.compressed_bytes_read")
        .Add(report.compressed_bytes_read);
    metrics.GetCounter("engine.decoded_bytes").Add(report.decoded_bytes);
    obs::Histogram& reads = metrics.GetHistogram("engine.round_read_bytes");
    obs::Histogram& writes = metrics.GetHistogram("engine.round_write_bytes");
    for (const RoundStat& stat : report.per_round) {
      switch (stat.model) {
        case RoundModel::kSciu:
          metrics.GetCounter("engine.rounds_sciu").Add(1);
          break;
        case RoundModel::kFciu:
          metrics.GetCounter("engine.rounds_fciu").Add(1);
          break;
        case RoundModel::kPlainFull:
          metrics.GetCounter("engine.rounds_plain_full").Add(1);
          break;
        case RoundModel::kSemi:
          metrics.GetCounter("engine.rounds_semi").Add(1);
          break;
        case RoundModel::kSkipped:
          metrics.GetCounter("engine.rounds_skipped").Add(1);
          break;
      }
      reads.Record(stat.read_bytes);
      writes.Record(stat.write_bytes);
    }
    if (report.blocks_skipped != 0) {
      metrics.GetCounter("engine.blocks_skipped").Add(report.blocks_skipped);
      metrics.GetCounter("engine.blocks_skipped_bytes")
          .Add(report.blocks_skipped_bytes);
    }
    if (report.cancelled) metrics.GetCounter("engine.cancelled_runs").Add(1);
    if (report.resumed) metrics.GetCounter("checkpoint.resumes").Add(1);
    if (report.checkpoints_written > base_.checkpoints_written) {
      metrics.GetCounter("checkpoint.written")
          .Add(report.checkpoints_written - base_.checkpoints_written);
      metrics.GetCounter("checkpoint.bytes")
          .Add(report.checkpoint_bytes - base_.checkpoint_bytes);
      metrics.GetCounter("checkpoint.dropped").Add(report.checkpoints_dropped);
    }
    dataset_.device().PublishMetrics(metrics);
    buffer_->PublishMetrics(metrics);
    prefetch_->PublishMetrics(metrics);
  }

  bool checkpointing() const noexcept {
    return !options_.checkpoint_dir.empty();
  }

  /// Validates the resume preconditions and restores `cp` into the run:
  /// vertex arrays, frontiers (push only) and the report's cumulative
  /// totals. kFailedPrecondition on any shape/identity mismatch —
  /// resuming a checkpoint against a different dataset build or program
  /// would silently corrupt results.
  Status Restore(const Checkpoint& cp) {
    if (cp.fingerprint != fingerprint_) {
      return FailedPreconditionError(StrPrintf(
          "checkpoint fingerprint %08x does not match dataset fingerprint "
          "%08x — refusing to resume on a different or rebuilt dataset",
          cp.fingerprint, fingerprint_));
    }
    if (cp.algorithm != program_.name()) {
      return FailedPreconditionError(StrPrintf(
          "checkpoint was written by algorithm '%s', not '%s'",
          cp.algorithm.c_str(), program_.name().c_str()));
    }
    if (cp.gather != gather_) {
      return FailedPreconditionError(
          "checkpoint program kind (push/gather) does not match");
    }
    if (cp.num_vertices != state_.num_vertices() ||
        cp.arrays.size() != state_.num_program_arrays()) {
      return FailedPreconditionError(StrPrintf(
          "checkpoint shape (%u vertices, %zu arrays) does not match the run "
          "(%u vertices, %u arrays)",
          cp.num_vertices, cp.arrays.size(), state_.num_vertices(),
          state_.num_program_arrays()));
    }
    for (std::uint32_t a = 0; a < state_.num_program_arrays(); ++a) {
      const auto dst = state_.array(a);
      std::copy(cp.arrays[a].begin(), cp.arrays[a].end(), dst.begin());
    }
    if (active_ != nullptr) {
      active_->Clear();
      for (const VertexId v : cp.active) active_->Activate(v);
      preact_->Clear();
      for (const VertexId v : cp.preact) preact_->Activate(v);
    }
    static_cast<RunTotals&>(report_) = base_ = cp.totals;
    report_.resumed = true;
    report_.resume_iteration = cp.iteration;
    return Status::Ok();
  }

  /// The RunTotals fields whose counters live outside the report: the
  /// buffer's and the dataset's decode counters (both may span runs) and
  /// the checkpoint writer's bytes. Every other field is zero.
  RunTotals ExternalCounters() const {
    RunTotals t;
    const SubBlockBuffer::Counters buf = buffer_->counters();
    t.buffer_hits = buf.hits;
    t.buffer_misses = buf.misses;
    t.buffer_bytes_saved = buf.bytes_saved;
    t.buffer_disk_bytes_saved = buf.disk_bytes_saved;
    const partition::DecodeStats decode = dataset_.decode_stats();
    t.frames_decoded = decode.frames_decoded;
    t.compressed_bytes_read = decode.compressed_bytes;
    t.decoded_bytes = decode.decoded_bytes;
    t.decode_seconds = decode.decode_seconds;
    t.checkpoint_bytes = writer_.bytes_written();
    return t;
  }

  /// Adds this run's delta of the external counters to `out`, the report
  /// or a copy of its totals. Until Finish folds it, the report holds their
  /// resumed base (zero on a fresh run).
  void FoldRunCounters(RunTotals& out) const {
    const RunTotals now = ExternalCounters();
    RunTotals::ForEachField(
        [](auto& total, const auto& now_value, const auto& before_value) {
          total += now_value - before_value;
        },
        out, now, external_before_);
  }

  /// Snapshots the committed boundary (in-memory arrays and frontiers are
  /// in sync with the persisted values file whenever this is called) and
  /// hands it to the async writer: slot writes are fdatasync-bound, so
  /// they stay off the round critical path.
  Status WriteCheckpoint(std::uint32_t boundary) {
    obs::TraceSpan span(options_.trace, "checkpoint", boundary);
    WallTimer timer;
    Checkpoint cp;
    cp.fingerprint = fingerprint_;
    cp.algorithm = program_.name();
    cp.gather = gather_;
    cp.iteration = boundary;
    cp.num_vertices = state_.num_vertices();
    cp.arrays.resize(state_.num_program_arrays());
    for (std::uint32_t a = 0; a < state_.num_program_arrays(); ++a) {
      const auto src = state_.array(a);
      cp.arrays[a].assign(src.begin(), src.end());
    }
    if (active_ != nullptr) {
      active_->ForEachActive([&](std::size_t v) {
        cp.active.push_back(static_cast<VertexId>(v));
      });
      preact_->ForEachActive([&](std::size_t v) {
        cp.preact.push_back(static_cast<VertexId>(v));
      });
    }
    cp.totals = report_;
    FoldRunCounters(cp.totals);
    GRAPHSD_RETURN_IF_ERROR(writer_.Submit(cp).status());
    ++report_.checkpoints_written;
    report_.checkpoint_seconds += timer.Seconds();
    last_checkpoint_ = boundary;
    return Status::Ok();
  }

  const partition::GridDataset& dataset_;
  const EngineOptions& options_;
  const Program& program_;
  const bool gather_;
  VertexState& state_;
  Frontier* active_;
  Frontier* preact_;
  const std::string values_path_;
  std::unique_ptr<SubBlockBuffer> local_buffer_;
  SubBlockBuffer* buffer_ = nullptr;
  CancellationToken token_;
  std::unique_ptr<io::PrefetchPipeline> local_prefetch_;
  io::PrefetchPipeline* prefetch_ = nullptr;
  std::unique_ptr<SkipSummaryStore> local_summaries_;
  ExecContext ctx_;
  CheckpointStore store_;
  AsyncCheckpointWriter writer_;
  std::uint32_t fingerprint_ = 0;
  ExecutionReport report_;
  /// ExternalCounters() at the start of the run.
  RunTotals external_before_;
  /// Cumulative totals of the checkpoint this run resumed from (all-zero
  /// on a fresh run).
  RunTotals base_;
  std::uint32_t last_checkpoint_ = 0;
  io::IoStatsSnapshot round_io_;
  double round_clock_ = 0;
  WallTimer round_wall_;
};

GraphSDEngine::GraphSDEngine(const partition::GridDataset& dataset,
                             EngineOptions options)
    : dataset_(&dataset), options_(std::move(options)) {
  // SCIU needs the source index; degrade gracefully on index-less layouts.
  if (!dataset.manifest().has_index) options_.enable_selective = false;
}

std::string GraphSDEngine::ValuesPath(const Program& program) const {
  const std::string base =
      options_.scratch_dir.empty() ? dataset_->dir() : options_.scratch_dir;
  return base + "/values_" + program.name() + ".bin";
}

Result<ExecutionReport> GraphSDEngine::Run(Program& program) {
  program.Bind(dataset_->out_degrees());
  state_ = std::make_unique<VertexState>(
      dataset_->num_vertices(), program.num_value_arrays(),
      program.kind() == ProgramKind::kGather, program.contrib_width());
  if (program.kind() == ProgramKind::kPush) {
    return RunPush(static_cast<PushProgram&>(program));
  }
  return RunGather(static_cast<GatherProgram&>(program));
}

Result<ExecutionReport> GraphSDEngine::RunPush(PushProgram& program) {
  const auto& manifest = dataset_->manifest();
  io::Device& device = dataset_->device();
  VertexState& state = *state_;
  const VertexId n = manifest.num_vertices;
  Frontier active(n);
  Frontier out(n);
  Frontier out_ni(n);
  Frontier preact(n);

  RunScope scope(*this, program, &active, &preact);
  ExecutionReport& report = scope.report();
  const bool overlap = report.overlap_io;
  SciuExecutor sciu(scope.ctx());
  FciuExecutor fciu(scope.ctx());
  StateAwareScheduler scheduler(*dataset_, device.options().cost_model);
  const bool semi_mode = options_.semi_external;
  const SemiCostInputs semi_inputs{scope.ctx().summaries, scope.ctx().buffer};

  program.Init(state, active);
  GRAPHSD_ASSIGN_OR_RETURN(std::uint32_t iterations, scope.Start());
  if (options_.frontier_probe) options_.frontier_probe(iterations, active);

  const std::uint32_t max_iterations =
      std::min(program.max_iterations(), options_.max_iterations);
  // Cleared when the on-demand model hits unusable inputs (missing index,
  // checksum mismatch); the full-streaming model needs neither the index
  // nor ranged reads, so the run degrades instead of failing.
  bool selective_healthy = true;
  // The semi rollback snapshot: one buffer per program array for the whole
  // run, refilled in place each round.
  std::vector<std::vector<Slot>> state_snapshot(
      semi_mode ? state.num_program_arrays() : 0);

  while (iterations < max_iterations) {
    if (scope.StopRequested()) break;
    if (active.Empty()) {
      if (preact.Empty()) break;
      // Iteration t has no regularly-active vertices; the pre-activated set
      // becomes the next frontier at zero I/O cost.
      active.Swap(preact);
      preact.Clear();
      RoundStat stat;
      stat.first_iteration = iterations;
      stat.model = RoundModel::kSkipped;
      ++iterations;
      ++report.rounds;
      if (options_.record_per_round) report.per_round.push_back(stat);
      if (options_.frontier_probe) options_.frontier_probe(iterations, active);
      continue;
    }

    RoundStat stat;
    stat.first_iteration = iterations;
    bool on_demand = false;
    bool semi_round = false;
    const RoundModelChoice choice = options_.model_override
                                        ? options_.model_override(iterations)
                                        : RoundModelChoice::kAuto;
    if (choice != RoundModelChoice::kAuto) {
      // Forced model (differential testing): skip the cost evaluation. The
      // on-demand directive still requires a usable selective path.
      on_demand = choice == RoundModelChoice::kOnDemand && selective_healthy &&
                  options_.enable_selective;
      semi_round = choice == RoundModelChoice::kSemi;
      stat.active_vertices = active.Count();
    } else if ((selective_healthy &&
                (options_.force_on_demand || options_.enable_selective)) ||
               semi_mode) {
      // Under overlap charging the scheduler floors both model costs at the
      // run's observed per-round compute (0 before the first round commits,
      // i.e. the first evaluation is effectively serial).
      const double overlap_compute =
          overlap && report.rounds > 0
              ? report.compute_seconds / report.rounds
              : (overlap ? 0.0 : -1.0);
      obs::TraceSpan span(options_.trace, "schedule-decision", iterations);
      // Semi mode keeps the state RAM-resident, so the per-round |V|·N
      // values terms drop out of every model's formula (record bytes = 0).
      const SchedulerDecision decision = scheduler.Evaluate(
          active, semi_mode ? 0 : state.BytesPerVertex(),
          program.needs_weights() && manifest.weighted,
          /*fciu_round=*/options_.enable_cross_iteration &&
              iterations + 2 <= max_iterations,
          overlap_compute, semi_mode ? &semi_inputs : nullptr);
      stat.scheduler_seconds = decision.eval_seconds;
      // Record the raw model estimates: the charged (compute-floored)
      // values only break ties for the decision and would obscure the
      // cost-model shapes Figure 10 plots.
      stat.cost_on_demand = decision.serial_cost_on_demand;
      stat.cost_full = decision.serial_cost_full;
      stat.cost_semi = decision.serial_cost_semi;
      stat.active_vertices = decision.active_vertices;
      stat.active_edges = decision.active_edges;
      stat.seq_bytes = decision.seq_bytes;
      stat.rand_bytes = decision.rand_bytes;
      stat.random_requests = decision.random_requests;
      const bool sciu_usable =
          selective_healthy &&
          (options_.force_on_demand || options_.enable_selective);
      semi_round = !options_.force_on_demand && decision.semi;
      // With semi chosen, `decision.on_demand` only records the two-way
      // winner semi beat.
      on_demand = !semi_round && sciu_usable &&
                  (options_.force_on_demand || decision.on_demand);
    } else {
      stat.active_vertices = active.Count();
    }

    scope.BeginRound();
    // Semi-external: the state is RAM-resident — no per-round reload.
    // Instead the program arrays are snapshotted in memory so the rollback
    // paths below (mid-round cancel, on-demand degradation) can restore the
    // committed boundary without touching the stale values file.
    auto restore_state = [&]() -> Status {
      if (!semi_mode) return scope.LoadState(iterations);
      for (std::uint32_t a = 0; a < state.num_program_arrays(); ++a) {
        const auto dst = state.array(a);
        std::copy(state_snapshot[a].begin(), state_snapshot[a].end(),
                  dst.begin());
      }
      return Status::Ok();
    };
    if (semi_mode) {
      for (std::uint32_t a = 0; a < state.num_program_arrays(); ++a) {
        const auto src = state.array(a);
        state_snapshot[a].assign(src.begin(), src.end());
      }
    } else {
      GRAPHSD_RETURN_IF_ERROR(restore_state());
    }
    // `preact` is kept intact until the round commits: if the on-demand
    // attempt fails it reseeds the full-streaming redo of the same round.
    out.CopyFrom(preact);
    out_ni.Clear();

    bool cancelled_mid_round = false;
    if (on_demand) {
      Status status = sciu.RunIteration(program, state, active, out, out_ni,
                                        options_.enable_cross_iteration, stat,
                                        &report.update_seconds);
      if (status.code() == StatusCode::kCancelled) {
        cancelled_mid_round = true;
      } else if (!status.ok() && (status.code() == StatusCode::kNotFound ||
                                  status.code() == StatusCode::kCorruptData)) {
        GRAPHSD_LOG_WARN(
            "iteration %u: on-demand model unusable (%s); degrading to "
            "full-streaming for the rest of the run",
            iterations, status.ToString().c_str());
        selective_healthy = false;
        ++report.degraded_rounds;
        // Discard the partial iteration and redo it under the full model:
        // restore committed values and reseed the output frontiers.
        GRAPHSD_RETURN_IF_ERROR(restore_state());
        out.CopyFrom(preact);
        out_ni.Clear();
        on_demand = false;
      } else {
        GRAPHSD_RETURN_IF_ERROR(status);
        // The round may have fully pre-executed the following BSP iteration
        // (terminal cross-iteration step, see SciuExecutor); keep the
        // accounted span within the iteration budget.
        if (stat.first_iteration + stat.iterations_covered > max_iterations) {
          stat.iterations_covered = max_iterations - stat.first_iteration;
        }
        iterations += stat.iterations_covered;
        preact.Clear();
        active.Swap(out);
        preact.Swap(out_ni);
      }
    }
    if (!on_demand && !cancelled_mid_round) {
      RoundModel kind = RoundModel::kPlainFull;
      if (semi_round) {
        kind = RoundModel::kSemi;
      } else if (options_.enable_cross_iteration &&
                 iterations + 2 <= max_iterations) {
        kind = RoundModel::kFciu;
      }
      Status status = fciu.RunPushRound(program, state, active, out, out_ni,
                                        kind, stat, &report.update_seconds);
      if (status.code() == StatusCode::kCancelled) {
        cancelled_mid_round = true;
      } else {
        GRAPHSD_RETURN_IF_ERROR(status);
        preact.Clear();
        iterations += stat.iterations_covered;
        if (stat.iterations_covered == 2) {
          active.Swap(out_ni);  // `out` was fully consumed inside the round
          if (options_.model_lumos_propagation) {
            GRAPHSD_RETURN_IF_ERROR(scope.PropagateLumos());
          }
        } else {
          active.Swap(out);
        }
      }
    }

    if (cancelled_mid_round) {
      // The round never committed: frontier swaps only happen after
      // executor success, so `active`/`preact` still describe the last
      // committed boundary — restore its values and stop there. The partial
      // round's accounting is deliberately dropped (never committed).
      GRAPHSD_RETURN_IF_ERROR(restore_state());
      scope.MarkCancelled();
      break;
    }

    if (!semi_mode) {
      GRAPHSD_RETURN_IF_ERROR(scope.PersistState(stat.first_iteration));
    }
    scope.CommitRound(stat);
    if (options_.frontier_probe) options_.frontier_probe(iterations, active);
    GRAPHSD_RETURN_IF_ERROR(scope.AfterRound(iterations));
  }

  if (semi_mode) {
    // Semi mode's replacement for the per-round write-back: one |V|·N
    // accounted write for the whole run. Folded into the report manually —
    // it commits outside any round's accounting window.
    const auto io_before = device.stats().Snapshot();
    const double clock_before = device.clock().Seconds();
    GRAPHSD_RETURN_IF_ERROR(scope.PersistState(iterations));
    report.io += device.stats().Snapshot() - io_before;
    report.io_seconds += device.clock().Seconds() - clock_before;
  }
  return scope.Finish(iterations);
}

Result<ExecutionReport> GraphSDEngine::RunGather(GatherProgram& program) {
  const auto& manifest = dataset_->manifest();
  VertexState& state = *state_;

  RunScope scope(*this, program, /*active=*/nullptr, /*preact=*/nullptr);
  ExecutionReport& report = scope.report();
  FciuExecutor fciu(scope.ctx());

  Frontier unused(manifest.num_vertices);
  program.Init(state, unused);
  GRAPHSD_ASSIGN_OR_RETURN(std::uint32_t iterations, scope.Start());

  const std::uint32_t max_iterations =
      std::min(program.max_iterations(), options_.max_iterations);

  while (iterations < max_iterations) {
    if (scope.StopRequested()) break;
    RoundStat stat;
    stat.first_iteration = iterations;
    stat.active_vertices = manifest.num_vertices;
    stat.active_edges = manifest.num_edges;

    scope.BeginRound();
    GRAPHSD_RETURN_IF_ERROR(scope.LoadState(iterations));
    const bool two = options_.enable_cross_iteration &&
                     iterations + 2 <= max_iterations;
    Status status = fciu.RunGatherRound(program, state, two, stat,
                                        &report.update_seconds);
    if (status.code() == StatusCode::kCancelled) {
      // The round never committed: gather rounds mutate only the in-memory
      // arrays, which the next state.Load would overwrite anyway — reload
      // the committed values and stop there.
      GRAPHSD_RETURN_IF_ERROR(scope.LoadState(iterations));
      scope.MarkCancelled();
      break;
    }
    GRAPHSD_RETURN_IF_ERROR(status);
    iterations += stat.iterations_covered;
    if (two && options_.model_lumos_propagation) {
      GRAPHSD_RETURN_IF_ERROR(scope.PropagateLumos());
    }
    GRAPHSD_RETURN_IF_ERROR(scope.PersistState(stat.first_iteration));
    scope.CommitRound(stat);
    GRAPHSD_RETURN_IF_ERROR(scope.AfterRound(iterations));
  }
  return scope.Finish(iterations);
}

}  // namespace graphsd::core
