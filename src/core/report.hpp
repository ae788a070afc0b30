// Execution reports: the measurement record every engine returns.
// Figures 5–7 and 9–12 of the paper are produced from these fields.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "io/io_stats.hpp"

namespace graphsd::core {

/// Which update model executed a round.
enum class RoundModel : char {
  kSciu = 'S',       // selective cross-iteration update (1 iteration)
  kFciu = 'F',       // full cross-iteration update (2 iterations)
  kPlainFull = 'P',  // full I/O, no cross-iteration (1 iteration)
  kSemi = 'M',       // semi-external: RAM state + skip-summary streaming
  kSkipped = '-',    // empty-frontier iteration consumed without I/O
};

/// Per-round measurements (Figure 10's per-iteration series).
struct RoundStat {
  std::uint32_t first_iteration = 0;  // BSP iteration index the round starts
  std::uint32_t iterations_covered = 1;
  RoundModel model = RoundModel::kPlainFull;
  std::uint64_t active_vertices = 0;
  std::uint64_t active_edges = 0;      // scheduler estimate
  double io_seconds = 0;               // modeled
  double compute_seconds = 0;          // measured wall
  double scheduler_seconds = 0;        // benefit-evaluation overhead
  double cost_on_demand = 0;           // scheduler estimate C_r
  double cost_full = 0;                // scheduler estimate C_s
  double cost_semi = 0;                // scheduler estimate C_m (0 = not costed)
  // Semi-external selective streaming: sub-blocks proven source-inactive by
  // their skip summary and elided before any edge I/O, and the on-disk
  // bytes those elisions avoided.
  std::uint64_t blocks_skipped = 0;
  std::uint64_t blocks_skipped_bytes = 0;
  // The cost-model inputs behind C_r, recorded so run reports can replay
  // the schedule decision: bytes the on-demand estimate would read
  // sequentially (S_seq) vs randomly (S_ran), and the request count.
  std::uint64_t seq_bytes = 0;         // S_seq
  std::uint64_t rand_bytes = 0;        // S_ran
  std::uint64_t random_requests = 0;
  std::uint64_t read_bytes = 0;
  std::uint64_t write_bytes = 0;
};

/// The cumulative part of a run report: the fields a checkpoint carries, so
/// a killed and resumed run reports the whole logical run (DESIGN.md §12).
/// The checkpoint codec and the resume merge derive from ForEachField.
struct RunTotals {
  std::uint32_t rounds = 0;      // loading rounds
  // Rounds that fell back from the on-demand to the full-streaming model
  // after an index read failed (missing file or checksum mismatch).
  std::uint32_t degraded_rounds = 0;

  double compute_seconds = 0;    // measured wall (total)
  double update_seconds = 0;     // measured wall inside edge/vertex updates
  double io_seconds = 0;         // modeled I/O time
  double scheduler_seconds = 0;  // total benefit-evaluation overhead (Fig 11)

  io::IoStatsSnapshot io;        // traffic (Fig 7)

  std::uint64_t buffer_hits = 0;    // sub-blocks served from the buffer
  std::uint64_t buffer_misses = 0;  // sub-blocks (re)loaded from disk
  std::uint64_t buffer_bytes_saved = 0;
  // On-disk bytes buffer hits avoided re-reading (differs from
  // buffer_bytes_saved exactly by the compression savings of the blocks).
  std::uint64_t buffer_disk_bytes_saved = 0;

  // Semi-external rounds (DESIGN.md §14): totals of the per-round skip
  // counters — sub-blocks elided by their active-source summary before any
  // edge I/O, and the on-disk bytes those elisions avoided.
  std::uint32_t semi_rounds = 0;
  std::uint64_t blocks_skipped = 0;
  std::uint64_t blocks_skipped_bytes = 0;

  // Edge-payload decode counters: frames decoded, on-disk frame bytes in,
  // raw edge bytes out, and the wall time decode cost. Streamed blocks are
  // decoded by the loader's fetch unit; synchronous reloads and SCIU
  // passes decode on the consuming thread. Buffer hits decode nothing.
  std::uint64_t frames_decoded = 0;
  std::uint64_t compressed_bytes_read = 0;
  std::uint64_t decoded_bytes = 0;
  double decode_seconds = 0;

  // Checkpoint overhead (wall time; checkpoint I/O bypasses the modeled
  // device on purpose, so it appears here and nowhere in `io`).
  std::uint32_t checkpoints_written = 0;
  std::uint64_t checkpoint_bytes = 0;
  double checkpoint_seconds = 0;

  bool operator==(const RunTotals&) const = default;

  /// The one list of the fields: calls `f(t.field...)` per field, with the
  /// same field of every argument, in GSCK v4 payload order. The first
  /// kCheckpointV1Fields are the v1 payload, less the one field v4 dropped
  /// (core/checkpoint.hpp); new fields go at the end.
  template <typename F, typename... Totals>
  static void ForEachField(F&& f, Totals&... t) {
    f(t.rounds...);
    f(t.degraded_rounds...);
    f(t.compute_seconds...);
    f(t.update_seconds...);
    f(t.io_seconds...);
    f(t.scheduler_seconds...);
    f(t.decode_seconds...);
    f(t.io.seq_read_bytes...);
    f(t.io.seq_write_bytes...);
    f(t.io.rand_read_bytes...);
    f(t.io.rand_write_bytes...);
    f(t.io.seq_read_ops...);
    f(t.io.seq_write_ops...);
    f(t.io.rand_read_ops...);
    f(t.io.rand_write_ops...);
    f(t.io.retries...);
    f(t.io.checksum_failures...);
    f(t.io.eintr_absorbed...);
    f(t.buffer_hits...);
    f(t.buffer_misses...);
    f(t.buffer_bytes_saved...);
    f(t.buffer_disk_bytes_saved...);
    f(t.frames_decoded...);
    f(t.compressed_bytes_read...);
    f(t.decoded_bytes...);
    f(t.checkpoints_written...);
    f(t.checkpoint_bytes...);
    f(t.checkpoint_seconds...);
    // GSCK v2, less the three fields v3 dropped (core/checkpoint.hpp).
    f(t.semi_rounds...);
    f(t.blocks_skipped...);
    f(t.blocks_skipped_bytes...);
    f(t.io.vectored_reads...);
    f(t.io.bounce_reads...);
  }
};

/// A run report: the cumulative totals plus this execution's identity,
/// shape, lifecycle and per-round series.
struct ExecutionReport : RunTotals {
  std::string engine;
  std::string algorithm;
  std::string dataset;

  std::uint32_t iterations = 0;  // logical BSP iterations executed

  // Edge-payload compression codec negotiated from the dataset manifest
  // ("none" = raw layout).
  std::string codec = "none";

  // --- Run lifecycle (DESIGN.md §12) -------------------------------------
  // A cancelled run (Ctrl-C, deadline, external token) still returns a
  // report: partial results up to the last committed iteration boundary.
  bool cancelled = false;
  std::string cancel_reason;
  // Resumed from a checkpoint at `resume_iteration`; the RunTotals fields
  // (and iterations) cover the whole logical run, while per_round restarts
  // at the resume point.
  bool resumed = false;
  std::uint32_t resume_iteration = 0;
  // Checkpoint frames this run submitted that the async writer dropped
  // because a newer one superseded them before it reached disk. This run
  // only: not a RunTotals field, so no checkpoint carries it.
  std::uint64_t checkpoints_dropped = 0;

  std::vector<RoundStat> per_round;

  /// The headline number: measured compute plus modeled I/O.
  double TotalSeconds() const noexcept { return compute_seconds + io_seconds; }

  /// "Other" time of the Figure 6 breakdown.
  double OtherSeconds() const noexcept {
    const double other = compute_seconds - update_seconds;
    return other > 0 ? other : 0;
  }

  /// Multi-line human-readable summary.
  std::string Summary() const;
};

}  // namespace graphsd::core
