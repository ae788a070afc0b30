// State-aware I/O scheduling strategy (paper §4.1).
//
// Per iteration, estimates the cost of the two I/O access models and picks
// the cheaper:
//
//   C_s = (|V|·N + |E|·(M[+W])) / B_sr + |V|·N / B_sw          (full)
//   C_r = S_ran/B_rr + S_seq/B_sr + 2|V|·N/B_sr + |V|·N/B_sw   (on-demand)
//
// S_seq / S_ran are computed with one O(|A|) pass over the active set and
// the degree array, exactly as the paper describes: maximal runs of active
// vertices (gaps of zero-out-degree vertices do not break a run, since they
// occupy no edge bytes) read sequentially; each run boundary costs a seek in
// each of the P column sub-blocks it touches. The "2|V|·N" term is the
// vertex values plus the per-sub-block source index the on-demand model
// must consult; we charge the index at its true size.
//
// Compressed datasets are evaluated on *on-disk* bytes: C_s streams the
// frame files (plus raw weights), and the on-demand model fetches the whole
// frames of rows containing active runs (the CSR index addresses decoded
// offsets, so edge bytes can only arrive frame-at-a-time) while weights
// remain per-run ranged reads. Each model's cost adds its frame-decode
// estimate to its disk time.
#pragma once

#include <cstdint>
#include <span>

#include "core/frontier.hpp"
#include "core/skip_summary.hpp"
#include "core/sub_block_buffer.hpp"
#include "io/cost_model.hpp"
#include "partition/grid_dataset.hpp"

namespace graphsd::core {

/// Log-linear interpolation of a per-row expected-distinct-columns curve
/// sampled at `anchors` (strictly increasing run sizes, in edges). Run
/// sizes below the first / above the last anchor clamp to the end values;
/// between anchors the estimate is linear in log2(edges), matching the
/// roughly logarithmic growth of E[distinct cols] = sum_j 1 - (1-p_ij)^E.
/// Exposed for regression testing of the scheduler's request estimator.
double InterpolateExpectedColumns(std::span<const std::uint64_t> anchors,
                                  std::span<const double> expected,
                                  std::uint64_t edges);

/// Optional inputs that make the semi-external model (DESIGN.md §14) a
/// third costed choice in Evaluate. `summaries` drives the skip estimate
/// (an unknown summary is conservatively costed as a full fetch plus its
/// index probe); `buffer` prices resident sub-blocks at zero, since the
/// buffer holds them decoded. Either pointer may be null — the
/// corresponding credit is then simply not taken.
struct SemiCostInputs {
  const SkipSummaryStore* summaries = nullptr;
  const SubBlockBuffer* buffer = nullptr;
};

struct SchedulerDecision {
  bool on_demand = false;
  /// Semi-external chosen (wins only when STRICTLY cheaper than the better
  /// of the two paper models, so adding the third choice can never flip a
  /// two-way decision that still stands). When set, `on_demand` still
  /// records the two-way winner the semi model beat.
  bool semi = false;
  // Each model's serial formula plus its decode estimate, in seconds.
  double cost_on_demand = 0;  // C_r
  double cost_full = 0;       // C_s
  double cost_semi = 0;       // C_m (0 = semi not costed)
  // Semi-model estimate detail: sub-blocks its skip summaries elide and the
  // on-disk bytes those elisions avoid reading.
  std::uint64_t semi_skipped_blocks = 0;
  std::uint64_t semi_skipped_bytes = 0;
  std::uint64_t active_vertices = 0;
  std::uint64_t active_edges = 0;
  // Byte terms as they hit the disk: for compressed datasets these are
  // on-disk (frame) bytes — the scheduler compares what actually moves,
  // not the decoded view.
  std::uint64_t seq_bytes = 0;   // S_seq
  std::uint64_t rand_bytes = 0;  // S_ran
  std::uint64_t random_requests = 0;
  // On-demand request shape behind the byte terms: total per-sub-block
  // ranged requests (each charged one index seek + one edge seek) and the
  // index bytes those requests read. Charged per (row, edges) segment of
  // each run, so a run spanning interval boundaries pays every row it has
  // edges in.
  std::uint64_t seeks = 0;
  std::uint64_t index_bytes = 0;
  // Estimated frame-decode seconds included in each model's cost (zero for
  // raw datasets).
  double decode_seconds_on_demand = 0;
  double decode_seconds_full = 0;
  double decode_seconds_semi = 0;
  double eval_seconds = 0;  // wall time of the evaluation itself (Fig 11)
};

class StateAwareScheduler {
 public:
  StateAwareScheduler(const partition::GridDataset& dataset,
                      io::IoCostModel model)
      : dataset_(&dataset), model_(model) {}

  /// Evaluates both models for the given active set.
  /// `vertex_record_bytes` is N (the program's per-vertex on-disk record);
  /// `with_weights` selects M+W vs M for the edge term. When `fciu_round`
  /// is set, the full-model cost C_s is the per-iteration cost of an FCIU
  /// round — one full sweep plus the secondary sub-blocks, amortized over
  /// the two BSP iterations the round executes — instead of the plain
  /// single-iteration formula. On-demand wins when C_r <= C_s.
  ///
  /// The decision reads no timing: it depends only on the frontier, the
  /// dataset and the cost model, so identical inputs always schedule
  /// identically.
  ///
  /// Passing `semi` makes the semi-external model a third choice: C_m sums
  /// the on-disk bytes of the non-skippable sub-blocks (plus index-probe
  /// bytes for unknown summaries) with NO vertex-values terms — the state
  /// is RAM-resident in semi mode. Semi wins only when strictly cheaper
  /// than the two-way winner, so a null `semi` — and every existing call
  /// site — behaves exactly as before.
  SchedulerDecision Evaluate(const Frontier& active,
                             std::uint64_t vertex_record_bytes,
                             bool with_weights, bool fciu_round = false,
                             const SemiCostInputs* semi = nullptr) const;

  const io::IoCostModel& model() const noexcept { return model_; }

 private:
  const partition::GridDataset* dataset_;
  io::IoCostModel model_;
};

}  // namespace graphsd::core
