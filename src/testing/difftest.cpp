#include "testing/difftest.hpp"

#include <algorithm>
#include <atomic>
#include <bit>
#include <cmath>
#include <span>
#include <cstdio>
#include <filesystem>
#include <map>
#include <sstream>
#include <utility>

#include "core/checkpoint.hpp"
#include "core/engine.hpp"
#include "io/file.hpp"
#include "partition/grid_builder.hpp"
#include "testing/graph_cases.hpp"
#include "testing/program_factory.hpp"
#include "testing/reference_engine.hpp"
#include "testing/temp_dir.hpp"
#include "util/rng.hpp"

namespace graphsd::testing {
namespace {

using core::ContribSlot;
using core::EngineOptions;
using core::Frontier;
using core::GraphSDEngine;
using core::Program;
using core::PushProgram;
using core::RoundModelChoice;
using core::VertexState;

// Fixed-iteration gather (PageRank at N threads): only floating-point
// reassociation separates engine from oracle — tight tolerance.
constexpr double kRelTol = 1e-9;
constexpr double kAbsTol = 1e-12;
// Sum-threshold push (PR-Delta, PPR) in non-bitwise configs: execution
// order decides *which* sub-epsilon residuals are abandoned unpushed, so
// final values differ by up to ~n·ε/(1-d) ≈ 1e-6 at the harness's graph
// sizes; a real bug (lost edge, bad accumulate) shifts values by orders of
// magnitude more.
constexpr double kRelTolThreshold = 1e-6;
constexpr double kAbsTolThreshold = 2e-6;

// Engine-side fault injector: suppresses Apply for every copy of the
// lexicographically largest (src, dst) pair. Defined over edge *values*
// (not positions) so the dropped set is identical no matter how the grid
// reorders edges — the oracle, which runs the unwrapped program, then
// disagrees deterministically.
class DropEdgePushProgram final : public PushProgram {
 public:
  DropEdgePushProgram(std::unique_ptr<PushProgram> inner, Edge target)
      : inner_(std::move(inner)), target_(target) {}

  std::string name() const override { return inner_->name(); }
  bool needs_weights() const override { return inner_->needs_weights(); }
  std::uint32_t num_value_arrays() const override {
    return inner_->num_value_arrays();
  }
  void Bind(const std::vector<std::uint32_t>& out_degrees) override {
    inner_->Bind(out_degrees);
  }
  void Init(VertexState& state, Frontier& initial) override {
    inner_->Init(state, initial);
  }
  std::uint32_t max_iterations() const override {
    return inner_->max_iterations();
  }
  double ValueOf(const VertexState& state, VertexId v) const override {
    return inner_->ValueOf(state, v);
  }
  void MakeContribution(VertexState& state, VertexId v,
                        ContribSlot slot) const override {
    inner_->MakeContribution(state, v, slot);
  }
  bool Apply(VertexState& state, VertexId src, VertexId dst, Weight w,
             ContribSlot slot) const override {
    if (src == target_.src && dst == target_.dst) return false;
    return inner_->Apply(state, src, dst, w, slot);
  }

 private:
  std::unique_ptr<PushProgram> inner_;
  Edge target_;
};

Edge MaxEdge(const EdgeList& graph) {
  Edge best{0, 0};
  bool any = false;
  for (const Edge& e : graph.edges()) {
    if (!any || e.src > best.src || (e.src == best.src && e.dst > best.dst)) {
      best = e;
      any = true;
    }
  }
  return best;
}

bool BitwiseEqual(double a, double b) {
  return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}

bool WithinTolerance(double a, double b, double rel, double abs) {
  if (BitwiseEqual(a, b)) return true;
  if (std::isnan(a) || std::isnan(b)) return false;
  if (std::isinf(a) || std::isinf(b)) return a == b;
  const double scale = std::max(std::abs(a), std::abs(b));
  return std::abs(a - b) <= abs + rel * scale;
}

std::vector<VertexId> SortedFrontier(const Frontier& frontier) {
  std::vector<VertexId> ids;
  frontier.ForEachActive(
      [&](std::size_t v) { ids.push_back(static_cast<VertexId>(v)); });
  std::sort(ids.begin(), ids.end());
  return ids;
}

Divergence MakeStatusDivergence(const Status& status) {
  Divergence d;
  d.invariant = "status";
  d.detail = "engine run failed on valid input: " + status.ToString();
  return d;
}

}  // namespace

std::string DescribeDivergence(const Divergence& d) {
  std::ostringstream out;
  out << "invariant=" << d.invariant;
  if (d.invariant == "value") {
    char oracle_buf[48], engine_buf[48];
    std::snprintf(oracle_buf, sizeof oracle_buf, "%.17g", d.oracle_value);
    std::snprintf(engine_buf, sizeof engine_buf, "%.17g", d.engine_value);
    out << " vertex=" << d.vertex << " oracle=" << oracle_buf
        << " engine=" << engine_buf;
  } else if (d.invariant == "iterations") {
    out << " oracle_iterations=" << d.oracle_iterations
        << " engine_iterations=" << d.engine_iterations;
  } else if (d.invariant == "frontier") {
    out << " iteration=" << d.iteration << " vertex=" << d.vertex;
  }
  if (!d.detail.empty()) out << " detail=\"" << d.detail << "\"";
  return out.str();
}

Result<BuiltDataset> BuildCaseDataset(const EdgeList& graph,
                                      const std::string& codec,
                                      std::uint32_t p, const std::string& dir) {
  std::error_code ec;
  std::filesystem::create_directories(dir, ec);
  if (ec) return InternalError("cannot create " + dir + ": " + ec.message());

  BuiltDataset built;
  built.device = io::MakeSimulatedDevice();
  built.codec = codec;

  partition::GridBuildOptions options;
  options.num_intervals = p;
  options.codec = codec;
  options.name = "difftest";
  auto manifest = partition::BuildGrid(graph, *built.device, dir, options);
  GRAPHSD_RETURN_IF_ERROR(manifest.status());

  auto dataset = partition::GridDataset::Open(*built.device, dir);
  GRAPHSD_RETURN_IF_ERROR(dataset.status());
  built.dataset =
      std::make_unique<partition::GridDataset>(std::move(dataset).value());
  built.p = built.dataset->manifest().p;
  return built;
}

Result<std::optional<Divergence>> RunTrial(
    const EdgeList& graph, VertexId root,
    const partition::GridDataset& dataset, const TrialConfig& config) {
  auto spec = AlgoSpecFor(config.algo);
  GRAPHSD_RETURN_IF_ERROR(spec.status());
  if (config.model != "auto" && config.model != "on_demand" &&
      config.model != "full" && config.model != "semi") {
    return InvalidArgumentError("bad trial model: " + config.model);
  }
  if (config.threads == 0) {
    return InvalidArgumentError("trial threads must be >= 1");
  }
  if (config.compute_threads == 0) {
    return InvalidArgumentError("trial compute_threads must be >= 1");
  }

  // Oracle: the unwrapped program under textbook BSP.
  auto oracle_program = MakeProgram(config.algo, root);
  GRAPHSD_RETURN_IF_ERROR(oracle_program.status());
  const bool push = (*oracle_program)->kind() == core::ProgramKind::kPush;

  ReferenceOptions ref_options;
  ref_options.record_frontiers = push;
  auto oracle = RunReferenceBsp(**oracle_program, graph, ref_options);
  GRAPHSD_RETURN_IF_ERROR(oracle.status());

  // Engine-side program, optionally fault-wrapped.
  auto engine_inner = MakeProgram(config.algo, root);
  GRAPHSD_RETURN_IF_ERROR(engine_inner.status());
  std::unique_ptr<Program> engine_program = std::move(engine_inner).value();
  if (config.fault == EngineFault::kDropMaxEdge) {
    if (!push) {
      return InvalidArgumentError(
          "drop_max_edge fault requires a push algorithm");
    }
    engine_program = std::make_unique<DropEdgePushProgram>(
        std::unique_ptr<PushProgram>(
            static_cast<PushProgram*>(engine_program.release())),
        MaxEdge(graph));
  }

  // Semi-external rounds are always one plain BSP iteration, so a semi
  // trial follows the cross=false invariant semantics regardless of the
  // requested cross_iteration bit.
  const bool semi = config.model == "semi";
  const bool cross = config.cross_iteration && !semi;

  EngineOptions options;
  options.num_threads = config.threads;
  // Sharded compute is order-preserving, so this axis rides every invariant
  // unchanged: the bitwise/iteration gates below still key off config.threads
  // alone, and any shard count must pass them identically.
  options.compute_threads = config.compute_threads;
  options.enable_cross_iteration = cross;
  options.prefetch_depth = config.prefetch_depth;
  options.record_per_round = false;
  options.semi_external = semi;
  // Semantics-neutral cache shape change: compressed datasets keep raw
  // frames in the buffer and decode on hit. Always on so every trial also
  // differentially covers the decode-on-hit path.
  options.cache_compressed = true;
  // Bound a diverging engine instead of letting a convergence bug spin: a
  // correct engine needs at most 2*oracle+1 waves (cross-iteration
  // activation stealing; see the iteration invariant below) plus slack for
  // tolerance-class threshold wobble.
  options.max_iterations = 2 * oracle->iterations + 17;
  if (config.model != "auto") {
    const RoundModelChoice forced = config.model == "on_demand"
                                        ? RoundModelChoice::kOnDemand
                                    : semi ? RoundModelChoice::kSemi
                                           : RoundModelChoice::kFull;
    options.model_override = [forced](std::uint32_t) { return forced; };
  }

  // Frontier probe: only meaningful at plain-BSP boundaries.
  const AlgoSpec& algo = *spec;
  const bool compare_frontiers =
      push && !cross && (algo.cls == AlgoClass::kMonotone ||
                         config.threads == 1);
  std::map<std::uint32_t, std::vector<VertexId>> engine_frontiers;
  if (compare_frontiers) {
    options.frontier_probe = [&engine_frontiers](std::uint32_t next_iteration,
                                                 const Frontier& active) {
      engine_frontiers[next_iteration] = SortedFrontier(active);
    };
  }

  GraphSDEngine engine(dataset, options);
  auto report = engine.Run(*engine_program);
  if (!report.ok()) {
    return std::optional<Divergence>(MakeStatusDivergence(report.status()));
  }

  Divergence d;
  d.oracle_iterations = oracle->iterations;
  d.engine_iterations = report->iterations;

  // Iteration-count invariant.
  bool iterations_equal = false;
  bool iterations_bounded = false;
  switch (algo.cls) {
    case AlgoClass::kMonotone:
      iterations_equal = !cross;
      iterations_bounded = cross;
      break;
    case AlgoClass::kSumThreshold:
      iterations_equal = config.threads == 1 && !cross;
      break;
    case AlgoClass::kFixedIteration:
      iterations_equal = true;
      break;
  }
  if (iterations_equal && report->iterations != oracle->iterations) {
    d.invariant = "iterations";
    d.detail = "expected iteration count equal to oracle";
    return std::optional<Divergence>(d);
  }
  // Cross-iteration pre-execution is value-exact but not wave-count
  // preserving, in both directions. Delay: a cross apply can deliver a
  // vertex's wave-(t+1) value before its wave-t apply lands, stealing the
  // wave-t activation (equal value, Apply returns false) and pushing the
  // vertex's own propagation one wave later — at most one extra wave per
  // hop, so <= 2*oracle + 1 total. Acceleration: contributions seal at
  // column end, after the interval has already absorbed early cross
  // applies from lower intervals, so one round can chain a value through
  // several ascending intervals Gauss-Seidel-style — the engine may
  // converge in fewer counted waves than BSP.
  if (iterations_bounded &&
      report->iterations > 2 * oracle->iterations + 1) {
    d.invariant = "iterations";
    d.detail = "cross-iteration engine iterations above 2*oracle+1";
    return std::optional<Divergence>(d);
  }

  // Value invariant.
  const bool bitwise =
      algo.cls == AlgoClass::kMonotone ||
      (algo.cls == AlgoClass::kSumThreshold && config.threads == 1 &&
       !cross) ||
      (algo.cls == AlgoClass::kFixedIteration && config.threads == 1);
  const double rel_tol =
      algo.cls == AlgoClass::kSumThreshold ? kRelTolThreshold : kRelTol;
  const double abs_tol =
      algo.cls == AlgoClass::kSumThreshold ? kAbsTolThreshold : kAbsTol;
  const VertexState* state = engine.state();
  for (VertexId v = 0; v < graph.num_vertices(); ++v) {
    const double oracle_value = oracle->values[v];
    const double engine_value = engine_program->ValueOf(*state, v);
    const bool same =
        bitwise ? BitwiseEqual(oracle_value, engine_value)
                : WithinTolerance(oracle_value, engine_value, rel_tol, abs_tol);
    if (!same) {
      d.invariant = "value";
      d.vertex = v;
      d.iteration = report->iterations;
      d.oracle_value = oracle_value;
      d.engine_value = engine_value;
      d.detail = bitwise ? "bitwise value mismatch" : "tolerance exceeded";
      return std::optional<Divergence>(d);
    }
  }

  // Frontier invariant at BSP boundaries.
  if (compare_frontiers) {
    for (std::uint32_t k = 0; k <= oracle->iterations; ++k) {
      const auto it = engine_frontiers.find(k);
      if (it == engine_frontiers.end()) continue;  // round not committed yet
      const auto& expect = oracle->frontiers[k];
      if (it->second != expect) {
        d.invariant = "frontier";
        d.iteration = k;
        // First differing vertex, for the report.
        for (std::size_t i = 0; i < std::max(expect.size(), it->second.size());
             ++i) {
          const bool in_oracle = i < expect.size();
          const bool in_engine = i < it->second.size();
          if (!in_oracle || !in_engine || expect[i] != it->second[i]) {
            d.vertex = in_oracle ? expect[i] : it->second[i];
            break;
          }
        }
        d.detail = "frontier set mismatch entering iteration " +
                   std::to_string(k);
        return std::optional<Divergence>(d);
      }
    }
  }

  return std::optional<Divergence>();
}

namespace {

// One trial attempt for the minimizer: does `graph` still diverge?
Result<bool> StillDiverges(const ReproArtifact& artifact, const EdgeList& graph,
                           VertexId root, const std::string& dir) {
  auto built = BuildCaseDataset(graph, artifact.codec, artifact.p, dir);
  GRAPHSD_RETURN_IF_ERROR(built.status());
  TrialConfig config;
  config.algo = artifact.algo;
  config.model = artifact.model;
  config.cross_iteration = artifact.cross_iteration;
  config.prefetch_depth = artifact.prefetch_depth;
  config.threads = artifact.threads;
  config.compute_threads = artifact.compute_threads;
  config.fault = artifact.fault;
  auto divergence = RunTrial(graph, root, *built->dataset, config);
  GRAPHSD_RETURN_IF_ERROR(divergence.status());
  return divergence->has_value();
}

EdgeList RebuildGraph(const EdgeList& source,
                      const std::vector<std::size_t>& keep, VertexId n) {
  EdgeList out(n);
  for (const std::size_t k : keep) {
    const Edge& e = source.edges()[k];
    if (source.weighted()) {
      out.AddEdge(e.src, e.dst, source.weights()[k]);
    } else {
      out.AddEdge(e.src, e.dst);
    }
  }
  return out;
}

}  // namespace

Status MinimizeArtifact(ReproArtifact& artifact, const std::string& scratch_dir,
                        std::uint32_t budget) {
  std::uint32_t trials = 0;
  std::uint32_t dir_counter = 0;
  const auto try_graph = [&](const EdgeList& candidate) -> Result<bool> {
    if (trials >= budget) return false;
    ++trials;
    return StillDiverges(artifact, candidate, artifact.root,
                         scratch_dir + "/min_" + std::to_string(dir_counter++));
  };

  // ddmin over edges: drop chunks while the divergence persists.
  std::vector<std::size_t> keep(artifact.graph.num_edges());
  for (std::size_t i = 0; i < keep.size(); ++i) keep[i] = i;
  std::size_t chunk = (keep.size() + 1) / 2;
  while (chunk >= 1 && !keep.empty() && trials < budget) {
    bool removed_any = false;
    for (std::size_t start = 0; start < keep.size() && trials < budget;) {
      std::vector<std::size_t> candidate_keep;
      candidate_keep.reserve(keep.size());
      const std::size_t end = std::min(start + chunk, keep.size());
      for (std::size_t i = 0; i < keep.size(); ++i) {
        if (i < start || i >= end) candidate_keep.push_back(keep[i]);
      }
      auto diverges = try_graph(RebuildGraph(artifact.graph, candidate_keep,
                                             artifact.graph.num_vertices()));
      GRAPHSD_RETURN_IF_ERROR(diverges.status());
      if (*diverges) {
        keep = std::move(candidate_keep);
        removed_any = true;
        // re-test from the same start against the shrunken list
      } else {
        start = end;
      }
    }
    if (chunk == 1 && !removed_any) break;
    chunk = std::max<std::size_t>(1, chunk / 2);
  }

  // Vertex-range shrink: cut the id space down to what the kept edges and
  // the root actually reference.
  VertexId max_ref = artifact.root;
  for (const std::size_t k : keep) {
    const Edge& e = artifact.graph.edges()[k];
    max_ref = std::max({max_ref, e.src, e.dst});
  }
  const VertexId shrunk_n = max_ref + 1;
  if (shrunk_n < artifact.graph.num_vertices() && trials < budget) {
    EdgeList candidate = RebuildGraph(artifact.graph, keep, shrunk_n);
    auto diverges = try_graph(candidate);
    GRAPHSD_RETURN_IF_ERROR(diverges.status());
    if (*diverges) {
      artifact.graph = std::move(candidate);
      return Status::Ok();
    }
  }
  artifact.graph =
      RebuildGraph(artifact.graph, keep, artifact.graph.num_vertices());
  return Status::Ok();
}

Result<std::optional<Divergence>> ReplayArtifact(
    const ReproArtifact& artifact, const std::string& scratch_dir) {
  auto built = BuildCaseDataset(artifact.graph, artifact.codec, artifact.p,
                                scratch_dir + "/replay");
  GRAPHSD_RETURN_IF_ERROR(built.status());
  TrialConfig config;
  config.algo = artifact.algo;
  config.model = artifact.model;
  config.cross_iteration = artifact.cross_iteration;
  config.prefetch_depth = artifact.prefetch_depth;
  config.threads = artifact.threads;
  config.compute_threads = artifact.compute_threads;
  config.fault = artifact.fault;
  return RunTrial(artifact.graph, artifact.root, *built->dataset, config);
}

namespace {

using core::GatherProgram;

// Trips `token` after the N-th Apply call. Observes only: the partial round
// it interrupts is rolled back by the engine, so forwarding every call is
// safe (and required — the wrapper must not change the committed prefix).
class TripPushProgram final : public PushProgram {
 public:
  TripPushProgram(std::unique_ptr<PushProgram> inner, CancellationToken* token,
                  std::uint64_t trip_after)
      : inner_(std::move(inner)), token_(token), trip_after_(trip_after) {}

  std::string name() const override { return inner_->name(); }
  bool needs_weights() const override { return inner_->needs_weights(); }
  std::uint32_t num_value_arrays() const override {
    return inner_->num_value_arrays();
  }
  void Bind(const std::vector<std::uint32_t>& out_degrees) override {
    inner_->Bind(out_degrees);
  }
  void Init(VertexState& state, Frontier& initial) override {
    inner_->Init(state, initial);
  }
  std::uint32_t max_iterations() const override {
    return inner_->max_iterations();
  }
  double ValueOf(const VertexState& state, VertexId v) const override {
    return inner_->ValueOf(state, v);
  }
  void MakeContribution(VertexState& state, VertexId v,
                        ContribSlot slot) const override {
    inner_->MakeContribution(state, v, slot);
  }
  bool Apply(VertexState& state, VertexId src, VertexId dst, Weight w,
             ContribSlot slot) const override {
    if (calls_.fetch_add(1, std::memory_order_relaxed) + 1 == trip_after_) {
      token_->Cancel("difftest kill");
    }
    return inner_->Apply(state, src, dst, w, slot);
  }

 private:
  std::unique_ptr<PushProgram> inner_;
  CancellationToken* token_;
  std::uint64_t trip_after_;
  mutable std::atomic<std::uint64_t> calls_{0};
};

// Gather counterpart: trips after the N-th MakeContribution call. Gather
// runs have no frontier probe, so this is the deterministic kill mechanism
// for them (at one thread the call sequence is fixed).
class TripGatherProgram final : public GatherProgram {
 public:
  TripGatherProgram(std::unique_ptr<GatherProgram> inner,
                    CancellationToken* token, std::uint64_t trip_after)
      : inner_(std::move(inner)), token_(token), trip_after_(trip_after) {}

  std::string name() const override { return inner_->name(); }
  bool needs_weights() const override { return inner_->needs_weights(); }
  std::uint32_t num_value_arrays() const override {
    return inner_->num_value_arrays();
  }
  void Bind(const std::vector<std::uint32_t>& out_degrees) override {
    inner_->Bind(out_degrees);
  }
  void Init(VertexState& state, Frontier& initial) override {
    inner_->Init(state, initial);
  }
  std::uint32_t max_iterations() const override {
    return inner_->max_iterations();
  }
  double ValueOf(const VertexState& state, VertexId v) const override {
    return inner_->ValueOf(state, v);
  }
  void MakeContribution(VertexState& state, VertexId v,
                        core::ContribSlot slot) const override {
    if (calls_.fetch_add(1, std::memory_order_relaxed) + 1 == trip_after_) {
      token_->Cancel("difftest kill");
    }
    inner_->MakeContribution(state, v, slot);
  }
  void ResetAccum(VertexState& state, core::AccumSlot a) const override {
    inner_->ResetAccum(state, a);
  }
  void Accumulate(VertexState& state, VertexId src, VertexId dst, Weight w,
                  core::ContribSlot c, core::AccumSlot a) const override {
    inner_->Accumulate(state, src, dst, w, c, a);
  }
  void Finalize(VertexState& state, VertexId begin, VertexId end,
                core::AccumSlot a) const override {
    inner_->Finalize(state, begin, end, a);
  }

 private:
  std::unique_ptr<GatherProgram> inner_;
  CancellationToken* token_;
  std::uint64_t trip_after_;
  mutable std::atomic<std::uint64_t> calls_{0};
};

// Damages the newest checkpoint slot (bit flip or truncation). Applied only
// when BOTH slots decode valid so the older slot remains as the recovery
// path; returns whether damage was actually applied.
Result<bool> DamageNewestSlot(const std::string& checkpoint_dir, int mode) {
  core::CheckpointStore store(checkpoint_dir);
  int newest = -1;
  std::uint32_t newest_iteration = 0;
  for (int slot = 0; slot < 2; ++slot) {
    auto data = io::ReadFileToString(store.SlotPath(slot));
    if (!data.ok()) return false;
    auto checkpoint = core::DecodeCheckpoint(std::span<const std::uint8_t>(
        reinterpret_cast<const std::uint8_t*>(data->data()), data->size()));
    if (!checkpoint.ok()) return false;
    if (newest == -1 || checkpoint->iteration > newest_iteration) {
      newest = slot;
      newest_iteration = checkpoint->iteration;
    }
  }
  const std::string path = store.SlotPath(newest);
  auto data = io::ReadFileToString(path);
  GRAPHSD_RETURN_IF_ERROR(data.status());
  std::string damaged = std::move(data).value();
  if (mode == 2) {
    damaged.resize(damaged.size() / 2);  // torn write
  } else {
    damaged[damaged.size() / 2] ^= 0x20;  // silent media corruption
  }
  GRAPHSD_RETURN_IF_ERROR(io::WriteStringToFile(path, damaged));
  return true;
}

}  // namespace

Result<std::optional<Divergence>> RunKillResumeTrial(
    const EdgeList& graph, VertexId root,
    const partition::GridDataset& dataset, const std::string& scratch_dir,
    const KillResumeConfig& config) {
  auto spec = AlgoSpecFor(config.algo);
  GRAPHSD_RETURN_IF_ERROR(spec.status());
  if (config.model != "auto" && config.model != "on_demand" &&
      config.model != "full" && config.model != "semi") {
    return InvalidArgumentError("bad trial model: " + config.model);
  }
  if (config.kill_iteration == 0) {
    return InvalidArgumentError("kill_iteration must be >= 1");
  }

  const std::string checkpoint_dir = scratch_dir + "/ck";
  (void)io::RemoveTree(checkpoint_dir);  // stale slots from a prior trial

  // One thread, overlap off: the scheduler sees only modeled (deterministic)
  // costs, so the killed and resumed segments replay the uninterrupted run
  // exactly and every algorithm class is bitwise-comparable.
  const auto make_options = [&config]() {
    const bool semi = config.model == "semi";
    EngineOptions options;
    options.num_threads = 1;
    // Semi rounds are plain BSP; forcing cross off keeps the killed and
    // resumed segments on identical wave boundaries (gather runs, which
    // ignore the semi override, keep the requested bit).
    options.enable_cross_iteration = config.cross_iteration && !semi;
    options.prefetch_depth = config.prefetch_depth;
    options.record_per_round = false;
    options.overlap_io = false;
    options.max_iterations = 1000;
    options.semi_external = semi;
    options.cache_compressed = true;
    if (config.model != "auto") {
      const RoundModelChoice forced = config.model == "on_demand"
                                          ? RoundModelChoice::kOnDemand
                                      : semi ? RoundModelChoice::kSemi
                                             : RoundModelChoice::kFull;
      options.model_override = [forced](std::uint32_t) { return forced; };
    }
    return options;
  };

  // 1. Uninterrupted baseline.
  auto base_program = MakeProgram(config.algo, root);
  GRAPHSD_RETURN_IF_ERROR(base_program.status());
  GraphSDEngine base_engine(dataset, make_options());
  auto base_report = base_engine.Run(**base_program);
  if (!base_report.ok()) {
    return std::optional<Divergence>(MakeStatusDivergence(base_report.status()));
  }
  std::vector<double> expect(graph.num_vertices());
  for (VertexId v = 0; v < graph.num_vertices(); ++v) {
    expect[v] = (*base_program)->ValueOf(*base_engine.state(), v);
  }

  // 2. Checkpointed run, cooperatively killed.
  CancellationToken token;
  auto killed_inner = MakeProgram(config.algo, root);
  GRAPHSD_RETURN_IF_ERROR(killed_inner.status());
  std::unique_ptr<Program> killed_program = std::move(killed_inner).value();
  EngineOptions killed_options = make_options();
  killed_options.checkpoint_dir = checkpoint_dir;
  killed_options.checkpoint_every = 1;
  killed_options.cancel = &token;
  if (spec->push) {
    if (config.midround_kill) {
      killed_program = std::make_unique<TripPushProgram>(
          std::unique_ptr<PushProgram>(
              static_cast<PushProgram*>(killed_program.release())),
          &token, std::uint64_t{config.kill_iteration} * 29 + 7);
    } else {
      killed_options.frontier_probe =
          [&token, kill = config.kill_iteration](std::uint32_t next_iteration,
                                                 const Frontier&) {
            if (next_iteration >= kill) token.Cancel("difftest kill");
          };
    }
  } else {
    // Aim mid-round near iteration kill/2: gather contributes every vertex
    // each iteration, so vertex-count scaling spreads kills across rounds.
    const std::uint64_t trip_after =
        std::uint64_t{config.kill_iteration} * graph.num_vertices() / 2 + 3;
    killed_program = std::make_unique<TripGatherProgram>(
        std::unique_ptr<GatherProgram>(
            static_cast<GatherProgram*>(killed_program.release())),
        &token, trip_after);
  }
  GraphSDEngine killed_engine(dataset, killed_options);
  auto killed_report = killed_engine.Run(*killed_program);
  if (!killed_report.ok()) {
    return std::optional<Divergence>(
        MakeStatusDivergence(killed_report.status()));
  }
  const bool was_killed = killed_report->cancelled;

  // 3. Optional slot damage (torn write / bit rot) before the resume.
  if (config.corrupt_newest != 0) {
    auto damaged = DamageNewestSlot(checkpoint_dir, config.corrupt_newest);
    GRAPHSD_RETURN_IF_ERROR(damaged.status());
  }

  // 4. Resume to completion and compare against the uninterrupted run.
  auto resume_program = MakeProgram(config.algo, root);
  GRAPHSD_RETURN_IF_ERROR(resume_program.status());
  EngineOptions resume_options = make_options();
  resume_options.checkpoint_dir = checkpoint_dir;
  resume_options.resume = true;
  GraphSDEngine resume_engine(dataset, resume_options);
  auto resume_report = resume_engine.Run(**resume_program);
  if (!resume_report.ok()) {
    Divergence d = MakeStatusDivergence(resume_report.status());
    d.detail = "resume failed: " + resume_report.status().ToString();
    return std::optional<Divergence>(d);
  }

  Divergence d;
  d.oracle_iterations = base_report->iterations;
  d.engine_iterations = resume_report->iterations;
  if (resume_report->cancelled) {
    d.invariant = "status";
    d.detail = "resumed run reported cancelled without a kill";
    return std::optional<Divergence>(d);
  }
  // A kill after at least one committed boundary must leave a checkpoint the
  // resume actually picks up (corruption only ever damages the newest of two
  // valid slots, so a fallback always survives).
  if (was_killed && killed_report->iterations > 0 && !resume_report->resumed) {
    d.invariant = "status";
    d.detail = "resume started fresh despite a checkpoint on disk";
    return std::optional<Divergence>(d);
  }

  // Iteration totals replay exactly, except under auto + cross-iteration
  // where the scheduler's model choice may legitimately regroup waves
  // around the resume point.
  if (!(config.model == "auto" && config.cross_iteration) &&
      resume_report->iterations != base_report->iterations) {
    d.invariant = "iterations";
    d.detail = "kill/resume iteration total differs from uninterrupted run";
    return std::optional<Divergence>(d);
  }

  // A forced model replays the uninterrupted run's rounds, so its round
  // counters must survive the resume. (Auto may choose differently on cold
  // skip summaries; buffer and traffic counters differ after any restart.)
  const auto counters = [](const core::ExecutionReport& r) {
    return "rounds " + std::to_string(r.rounds) + ", degraded " +
           std::to_string(r.degraded_rounds) + ", semi " +
           std::to_string(r.semi_rounds) + ", skipped blocks " +
           std::to_string(r.blocks_skipped) + " (" +
           std::to_string(r.blocks_skipped_bytes) + " B)";
  };
  if (config.model != "auto" &&
      counters(*resume_report) != counters(*base_report)) {
    d.invariant = "counters";
    d.detail = "kill/resume counters differ: resumed " +
               counters(*resume_report) + ", uninterrupted " +
               counters(*base_report);
    return std::optional<Divergence>(d);
  }

  const VertexState* state = resume_engine.state();
  for (VertexId v = 0; v < graph.num_vertices(); ++v) {
    const double resumed_value = (*resume_program)->ValueOf(*state, v);
    if (!BitwiseEqual(expect[v], resumed_value)) {
      d.invariant = "value";
      d.vertex = v;
      d.iteration = resume_report->iterations;
      d.oracle_value = expect[v];
      d.engine_value = resumed_value;
      d.detail = "kill/resume value differs from uninterrupted run";
      return std::optional<Divergence>(d);
    }
  }
  return std::optional<Divergence>();
}

Result<SweepSummary> RunKillResumeSweep(const KillResumeSweepOptions& options) {
  auto scratch = ScratchDir::Create();
  GRAPHSD_RETURN_IF_ERROR(scratch.status());

  constexpr std::uint32_t kDepths[] = {0, 1, 4};
  constexpr std::uint32_t kIntervals[] = {1, 2, 4, 8};
  constexpr std::uint32_t kKills[] = {1, 2, 3, 5};
  const char* kModels[] = {"on_demand", "full", "semi", "auto"};

  SweepSummary summary;
  std::uint64_t rotation = 0;  // spreads kill point/style, cross, corruption

  for (std::uint32_t s = 0; s < options.num_seeds; ++s) {
    const std::uint64_t seed = options.seed0 + s;
    const GraphCase graph_case = GenerateGraphCase(seed);
    ++summary.graphs;
    if (options.progress) {
      options.progress("kill-resume seed " + std::to_string(seed) + ": " +
                       graph_case.family + " (" +
                       std::to_string(graph_case.list.num_vertices()) + " v, " +
                       std::to_string(graph_case.list.num_edges()) + " e)");
    }

    SplitMix64 pick(seed ^ 0x9e3779b97f4a7c15ULL);
    const std::string seed_dir =
        scratch->path() + "/kr_seed_" + std::to_string(seed);
    std::vector<BuiltDataset> datasets;
    for (const char* codec : {"none", "varint-delta"}) {
      const std::uint32_t p = kIntervals[pick.Next() % 4];
      auto built = BuildCaseDataset(graph_case.list, codec, p,
                                    seed_dir + "/" + codec);
      GRAPHSD_RETURN_IF_ERROR(built.status());
      datasets.push_back(std::move(built).value());
      ++summary.datasets_built;
    }

    for (const AlgoSpec& algo : RegisteredAlgos()) {
      for (const BuiltDataset& ds : datasets) {
        for (const char* model : kModels) {
          KillResumeConfig config;
          config.algo = algo.name;
          config.model = model;
          config.kill_iteration = kKills[rotation % 4];
          config.cross_iteration = ((rotation / 4) % 2) == 1;
          config.prefetch_depth = kDepths[(rotation / 8) % 3];
          config.midround_kill = algo.push && ((rotation / 2) % 2) == 1;
          // Corruption needs an older slot to fall back to, which a kill at
          // iteration >= 2 (checkpointing every iteration) guarantees.
          config.corrupt_newest =
              config.kill_iteration >= 2
                  ? static_cast<int>((rotation / 5) % 3)
                  : 0;
          ++rotation;

          auto divergence = RunKillResumeTrial(
              graph_case.list, graph_case.root, *ds.dataset,
              seed_dir + "/trial_" + std::to_string(rotation), config);
          GRAPHSD_RETURN_IF_ERROR(divergence.status());
          ++summary.combos_run;
          if (!divergence->has_value()) continue;
          summary.divergences.push_back(**divergence);
          if (options.stop_on_divergence) return summary;
        }
      }
    }
  }
  return summary;
}

Result<SweepSummary> RunSweep(const SweepOptions& options) {
  auto scratch = ScratchDir::Create();
  GRAPHSD_RETURN_IF_ERROR(scratch.status());

  if (!options.artifact_dir.empty()) {
    std::error_code ec;
    std::filesystem::create_directories(options.artifact_dir, ec);
    if (ec) {
      return InternalError("cannot create artifact dir " +
                           options.artifact_dir + ": " + ec.message());
    }
  }

  constexpr std::uint32_t kDepths[] = {0, 1, 4};
  constexpr std::uint32_t kThreads[] = {1, 4};
  constexpr std::uint32_t kComputeShards[] = {1, 2, 8};
  constexpr std::uint32_t kIntervals[] = {1, 2, 4, 8};
  const char* kModels[] = {"on_demand", "full", "semi", "auto"};

  SweepSummary summary;
  std::uint64_t rotation = 0;  // spreads depth/threads/shards/cross per combo

  for (std::uint32_t s = 0; s < options.num_seeds; ++s) {
    const std::uint64_t seed = options.seed0 + s;
    const GraphCase graph_case = GenerateGraphCase(seed);
    ++summary.graphs;
    if (options.progress) {
      options.progress("seed " + std::to_string(seed) + ": " +
                       graph_case.family + " (" +
                       std::to_string(graph_case.list.num_vertices()) + " v, " +
                       std::to_string(graph_case.list.num_edges()) + " e)");
    }

    // Two datasets per case: raw and varint-delta, each with its own P.
    SplitMix64 pick(seed ^ 0x9e3779b97f4a7c15ULL);
    const std::string seed_dir =
        scratch->path() + "/seed_" + std::to_string(seed);
    std::vector<BuiltDataset> datasets;
    for (const char* codec : {"none", "varint-delta"}) {
      const std::uint32_t p = kIntervals[pick.Next() % 4];
      auto built = BuildCaseDataset(graph_case.list, codec, p,
                                    seed_dir + "/" + codec);
      GRAPHSD_RETURN_IF_ERROR(built.status());
      datasets.push_back(std::move(built).value());
      ++summary.datasets_built;
    }

    for (const AlgoSpec& algo : RegisteredAlgos()) {
      for (const BuiltDataset& ds : datasets) {
        for (const char* model : kModels) {
          TrialConfig config;
          config.algo = algo.name;
          config.model = model;
          config.prefetch_depth = kDepths[rotation % 3];
          config.threads = kThreads[(rotation / 3) % 2];
          config.cross_iteration = ((rotation / 6) % 2) == 1;
          // Co-prime stride against the 12-combo depth/threads/cross cycle
          // so every shard count eventually meets every other setting.
          config.compute_threads = kComputeShards[(rotation / 5) % 3];
          if (options.fault != EngineFault::kNone && algo.push) {
            config.fault = options.fault;
          }
          ++rotation;

          auto divergence =
              RunTrial(graph_case.list, graph_case.root, *ds.dataset, config);
          GRAPHSD_RETURN_IF_ERROR(divergence.status());
          ++summary.combos_run;
          if (!divergence->has_value()) continue;

          summary.divergences.push_back(**divergence);
          ReproArtifact artifact;
          artifact.seed = seed;
          artifact.family = graph_case.family;
          artifact.invariant = (*divergence)->invariant;
          artifact.algo = config.algo;
          artifact.root = graph_case.root;
          artifact.codec = ds.codec;
          artifact.p = ds.p;
          artifact.model = config.model;
          artifact.cross_iteration = config.cross_iteration;
          artifact.prefetch_depth = config.prefetch_depth;
          artifact.threads = config.threads;
          artifact.compute_threads = config.compute_threads;
          artifact.fault = config.fault;
          artifact.graph = graph_case.list;
          GRAPHSD_RETURN_IF_ERROR(MinimizeArtifact(
              artifact, seed_dir + "/minimize", options.minimize_budget));
          if (!options.artifact_dir.empty()) {
            const std::string path = options.artifact_dir + "/repro_seed" +
                                     std::to_string(seed) + "_" + config.algo +
                                     "_" + (*divergence)->invariant + ".txt";
            GRAPHSD_RETURN_IF_ERROR(WriteArtifact(artifact, path));
            summary.artifact_paths.push_back(path);
          }
          if (options.stop_on_divergence) return summary;
        }
      }
    }
  }
  return summary;
}

}  // namespace graphsd::testing
