// Differential test harness: real engine vs in-memory BSP oracle.
//
// A *trial* runs one algorithm over one built grid dataset under one engine
// configuration and checks the DESIGN.md §11 invariants against
// RunReferenceBsp:
//
//   * value equality     — bitwise (monotone algorithms always; others at
//                          one thread with cross-iteration off) or within
//                          rel 1e-9 / abs 1e-12 tolerance;
//   * iteration counts   — equal to the oracle (monotone with
//                          cross-iteration off, fixed-budget gather always;
//                          sum-threshold at one thread with cross off), or
//                          within [1, 2·oracle + 1] (monotone with
//                          cross-iteration on: pre-execution can both
//                          accelerate and delay wave counts — see
//                          program_factory.hpp);
//   * frontier equality  — the frontier set entering every BSP iteration,
//                          whenever the engine is plain-BSP-faithful
//                          (cross-iteration off and the class makes the
//                          activation set deterministic).
//
// A *sweep* generates seeded graph cases, builds each across raw and
// varint-delta datasets with varying P, and runs every registered
// algorithm through forced-SCIU / forced-FCIU / scheduler-auto
// configurations with rotating prefetch depth, thread count, compute
// shard count and cross-iteration setting. The first divergence is minimized (ddmin over
// edges, then vertex-range shrink) and persisted as a replayable artifact.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "graph/edge_list.hpp"
#include "io/device.hpp"
#include "partition/grid_dataset.hpp"
#include "testing/artifact.hpp"
#include "util/status.hpp"

namespace graphsd::testing {

/// One engine configuration to check against the oracle.
struct TrialConfig {
  std::string algo;
  /// Per-round I/O model: "auto" (scheduler decides), "on_demand"
  /// (SCIU-forced), "full" (FCIU-forced), "semi" (semi-external-forced:
  /// RAM-resident state + skip summaries; follows cross=false invariant
  /// semantics because semi rounds are always one plain BSP iteration).
  std::string model = "auto";
  bool cross_iteration = false;
  std::uint32_t prefetch_depth = 0;
  std::uint32_t threads = 1;
  /// Destination-interval compute shards (EngineOptions::compute_threads,
  /// core/sharded_apply.hpp). Sharding preserves the serial per-destination
  /// application order, so this axis must never relax an invariant — any
  /// value must reproduce the shards=1 trial bitwise.
  std::uint32_t compute_threads = 1;
  /// Deliberate engine-side fault (push algorithms only) for harness
  /// self-tests.
  EngineFault fault = EngineFault::kNone;
};

/// First point where engine and oracle disagree.
struct Divergence {
  /// "value" | "iterations" | "frontier" | "status" | "counters".
  std::string invariant;
  VertexId vertex = 0;
  std::uint32_t iteration = 0;
  double oracle_value = 0.0;
  double engine_value = 0.0;
  std::uint32_t oracle_iterations = 0;
  std::uint32_t engine_iterations = 0;
  std::string detail;
};

std::string DescribeDivergence(const Divergence& d);

/// A grid dataset (plus its owning device) built for one graph case.
struct BuiltDataset {
  std::unique_ptr<io::Device> device;
  std::unique_ptr<partition::GridDataset> dataset;
  std::string codec;
  std::uint32_t p = 0;  // effective P from the manifest (builder may clamp)
};

/// Builds `graph` into `dir` with the given codec and interval count.
Result<BuiltDataset> BuildCaseDataset(const EdgeList& graph,
                                      const std::string& codec,
                                      std::uint32_t p, const std::string& dir);

/// Runs one trial. Returns nullopt when every invariant holds, the first
/// divergence otherwise. A hard error means the trial could not execute at
/// all (bad algo name, dataset I/O failure) — engine-run failures on valid
/// input surface as a "status" divergence, not an error.
Result<std::optional<Divergence>> RunTrial(const EdgeList& graph,
                                           VertexId root,
                                           const partition::GridDataset& dataset,
                                           const TrialConfig& config);

struct SweepOptions {
  std::uint64_t seed0 = 1;
  std::uint32_t num_seeds = 8;
  /// Where minimized repro artifacts are written; empty disables artifacts.
  std::string artifact_dir;
  bool stop_on_divergence = true;
  /// Injected into every push-algorithm trial (harness self-test).
  EngineFault fault = EngineFault::kNone;
  /// Optional per-seed progress sink.
  std::function<void(const std::string&)> progress;
  /// Trial budget for artifact minimization.
  std::uint32_t minimize_budget = 40;
};

struct SweepSummary {
  std::uint64_t combos_run = 0;
  std::uint64_t graphs = 0;
  std::uint64_t datasets_built = 0;
  std::vector<Divergence> divergences;
  std::vector<std::string> artifact_paths;
};

/// Runs the randomized sweep. Divergences are collected in the summary;
/// the return status is only non-OK when the harness itself fails.
Result<SweepSummary> RunSweep(const SweepOptions& options);

// --- Kill-and-resume axis (DESIGN.md §12) --------------------------------
//
// Crash-safety counterpart of the oracle sweep: instead of comparing the
// engine against the BSP oracle, a kill-resume trial compares the engine
// against *itself* — an uninterrupted run vs a run that is cooperatively
// killed (checkpointing every iteration), optionally has its newest
// checkpoint slot damaged, and then resumes from disk. All runs execute at
// one thread with overlap-aware accounting off, so both segments are
// bit-deterministic and the final values must match the uninterrupted run
// bitwise for every algorithm class.

struct KillResumeConfig {
  std::string algo;
  /// "on_demand" | "full" | "semi" | "auto". "auto" stays deterministic here
  /// because overlap accounting is off: the scheduler then sees only modeled
  /// costs.
  std::string model = "on_demand";
  bool cross_iteration = false;
  std::uint32_t prefetch_depth = 0;
  /// Where to kill, >= 1. Push algorithms kill at this committed iteration
  /// boundary (the frontier probe trips the token); gather algorithms — and
  /// push with `midround_kill` — trip the token from inside the program at
  /// a call count derived from this knob, exercising the mid-round
  /// rollback-to-boundary path.
  std::uint32_t kill_iteration = 1;
  /// Push only: kill mid-round via an Apply-counting wrapper instead of at
  /// the iteration boundary.
  bool midround_kill = false;
  /// Damage the newest checkpoint slot before resuming: 0 = intact,
  /// 1 = single bit flip, 2 = truncation. Applied only when both slots
  /// decode valid, so the older slot always remains as the fallback.
  int corrupt_newest = 0;
};

/// Runs one kill-resume trial under `scratch_dir` (which receives the
/// checkpoint directory). Returns nullopt when the resumed run reproduces
/// the uninterrupted run bitwise; the first divergence otherwise.
Result<std::optional<Divergence>> RunKillResumeTrial(
    const EdgeList& graph, VertexId root,
    const partition::GridDataset& dataset, const std::string& scratch_dir,
    const KillResumeConfig& config);

struct KillResumeSweepOptions {
  std::uint64_t seed0 = 1;
  std::uint32_t num_seeds = 3;
  bool stop_on_divergence = true;
  /// Optional per-seed progress sink.
  std::function<void(const std::string&)> progress;
};

/// Randomized kill/resume sweep: every registered algorithm x raw and
/// varint-delta datasets x all four I/O models, with kill point, kill
/// style, cross-iteration, prefetch depth and slot corruption rotating
/// across combos. Three seeds already cover 126 combos.
Result<SweepSummary> RunKillResumeSweep(const KillResumeSweepOptions& options);

/// Shrinks `artifact`'s graph in place (edge ddmin, then vertex-range
/// shrink) while its divergence persists. Uses at most `budget`
/// build-and-run trials under `scratch_dir`.
Status MinimizeArtifact(ReproArtifact& artifact, const std::string& scratch_dir,
                        std::uint32_t budget = 40);

/// Re-executes an artifact's trial deterministically. Returns the
/// reproduced divergence, or nullopt when the artifact no longer diverges
/// (e.g. the bug has been fixed).
Result<std::optional<Divergence>> ReplayArtifact(const ReproArtifact& artifact,
                                                 const std::string& scratch_dir);

}  // namespace graphsd::testing
