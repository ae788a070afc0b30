#include "core/scheduler.hpp"

#include <algorithm>
#include <cmath>
#include <vector>

#include "util/clock.hpp"

namespace graphsd::core {

double InterpolateExpectedColumns(std::span<const std::uint64_t> anchors,
                                  std::span<const double> expected,
                                  std::uint64_t edges) {
  if (edges <= anchors.front()) return expected.front();
  if (edges >= anchors.back()) return expected.back();
  std::size_t hi = 1;
  while (anchors[hi] < edges) ++hi;
  if (anchors[hi] == edges) return expected[hi];
  const std::size_t lo = hi - 1;
  const double t = (std::log2(static_cast<double>(edges)) -
                    std::log2(static_cast<double>(anchors[lo]))) /
                   (std::log2(static_cast<double>(anchors[hi])) -
                    std::log2(static_cast<double>(anchors[lo])));
  return expected[lo] + t * (expected[hi] - expected[lo]);
}

SchedulerDecision StateAwareScheduler::Evaluate(
    const Frontier& active, std::uint64_t vertex_record_bytes,
    bool with_weights, bool fciu_round, const SemiCostInputs* semi) const {
  WallTimer timer;
  SchedulerDecision d;

  const auto& manifest = dataset_->manifest();
  const auto& degrees = dataset_->out_degrees();
  const bool compressed = manifest.compressed();
  const std::uint64_t weight_bytes_per_edge =
      with_weights && manifest.weighted ? kWeightBytes : 0;
  const std::uint64_t bytes_per_edge = kEdgeBytes + weight_bytes_per_edge;
  // Per-edge bytes a selective *ranged* read moves: compressed edge bytes
  // arrive as whole frames (charged separately below), so runs only carry
  // the raw weight file.
  const std::uint64_t ranged_bytes_per_edge =
      compressed ? weight_bytes_per_edge : bytes_per_edge;
  const std::uint64_t values_bytes =
      static_cast<std::uint64_t>(manifest.num_vertices) * vertex_record_bytes;

  // Non-empty sub-blocks per row: a selective pass touches (and loads the
  // index of) only those, so the estimate should too.
  std::vector<std::uint32_t> nonempty_cols(manifest.p, 0);
  for (std::uint32_t i = 0; i < manifest.p; ++i) {
    for (std::uint32_t j = 0; j < manifest.p; ++j) {
      if (manifest.EdgesIn(i, j) != 0) ++nonempty_cols[i];
    }
  }

  // Expected request count for a run of E edges in row i: one request per
  // column the run actually has edges in. Modelled from the row's column
  // distribution: E[distinct cols] = sum_j 1 - (1 - p_ij)^E. Precomputed at
  // a few anchor sizes and interpolated by lookup so the per-run cost stays
  // O(1).
  constexpr std::uint64_t kAnchors[] = {1, 2, 4, 8, 16, 64, 256, 4096};
  constexpr std::size_t kNumAnchors = std::size(kAnchors);
  std::vector<double> expected_cols(manifest.p * kNumAnchors, 1.0);
  for (std::uint32_t i = 0; i < manifest.p; ++i) {
    std::uint64_t row_total = 0;
    for (std::uint32_t j = 0; j < manifest.p; ++j) {
      row_total += manifest.EdgesIn(i, j);
    }
    for (std::size_t a = 0; a < kNumAnchors; ++a) {
      double expected = 0.0;
      if (row_total > 0) {
        for (std::uint32_t j = 0; j < manifest.p; ++j) {
          const double p_ij = static_cast<double>(manifest.EdgesIn(i, j)) /
                              static_cast<double>(row_total);
          expected += 1.0 - std::pow(1.0 - p_ij,
                                     static_cast<double>(kAnchors[a]));
        }
      }
      expected_cols[i * kNumAnchors + a] = std::max(1.0, expected);
    }
  }
  auto requests_for_run = [&](std::uint32_t row, std::uint64_t edges) {
    const double expected = InterpolateExpectedColumns(
        kAnchors,
        std::span<const double>(expected_cols.data() + row * kNumAnchors,
                                kNumAnchors),
        edges);
    return std::max<std::uint64_t>(
        1, std::min<std::uint64_t>(
               edges, static_cast<std::uint64_t>(expected + 0.5)));
  };

  // --- one pass over A: active edges, S_seq, S_ran, run count -------------
  // A run is a maximal set of active vertices whose edge lists are adjacent
  // on disk; inactive vertices with zero out-degree occupy no bytes and do
  // not break a run.
  std::uint64_t run_bytes = 0;
  std::uint64_t run_edges = 0;
  // A run may span interval boundaries, and each crossed row serves its
  // share of the run's edges from its own sub-blocks, so requests are
  // accumulated per (row, edges, vertices) segment rather than attributed
  // to a single row.
  struct RunSegment {
    std::uint32_t row;
    std::uint64_t edges;
    std::uint64_t vertices;
  };
  std::vector<RunSegment> run_segments;
  std::uint32_t cursor_row = 0;  // actives ascend, so the row is monotone
  std::uint64_t seeks = 0;
  std::uint64_t index_bytes = 0;
  // Rows holding at least one edge-bearing run segment: a compressed
  // selective pass fetches the whole frames of these rows' non-empty
  // sub-blocks.
  std::vector<char> rows_active(compressed ? manifest.p : 0, 0);
  VertexId prev_active = kInvalidVertex;
  bool gap_has_edges = false;

  // Prefix degrees between actives would be O(|V|); instead we track gaps
  // lazily: when we see a new active vertex, the gap [prev+1, v) breaks the
  // run iff any vertex in it has out-degree > 0. We bound the scan per gap
  // by early exit on the first edge-bearing vertex.
  auto close_run = [&] {
    if (run_edges == 0) {
      run_segments.clear();
      return;
    }
    ++d.random_requests;
    // A segment's edges are split across the columns of its row; it costs
    // at most one request per non-empty column, and never more requests
    // than it has edges. Each request is one ranged index read (the
    // segment's offset entries) plus one edge-range read.
    std::uint64_t requests = 0;
    for (const RunSegment& seg : run_segments) {
      if (seg.edges == 0) continue;  // zero-degree actives move no bytes
      const std::uint64_t seg_requests = requests_for_run(seg.row, seg.edges);
      requests += seg_requests;
      index_bytes += (seg.vertices + 1) * sizeof(std::uint32_t) * seg_requests;
      if (compressed) rows_active[seg.row] = 1;
    }
    seeks += 2 * requests;
    // Split seq/ran by the per-request transfer size; round the division up
    // so remainder bytes are not dropped from the split (a run with fewer
    // bytes than requests must classify as small random requests, not as
    // zero-byte ones).
    const std::uint64_t per_request = (run_bytes + requests - 1) / requests;
    if (per_request >= model_.random_request_bytes) {
      d.seq_bytes += run_bytes;
    } else {
      d.rand_bytes += run_bytes;
    }
    run_bytes = 0;
    run_edges = 0;
    run_segments.clear();
  };

  // Per-row active locals, collected only when the semi-external model is
  // being costed (its skip tests are per-row bitset probes).
  std::vector<std::vector<VertexId>> row_locals(semi != nullptr ? manifest.p
                                                                : 0);

  active.ForEachActive([&](std::size_t idx) {
    const auto v = static_cast<VertexId>(idx);
    ++d.active_vertices;
    const std::uint64_t deg = degrees[v];
    d.active_edges += deg;

    if (prev_active != kInvalidVertex) {
      gap_has_edges = false;
      for (VertexId u = prev_active + 1; u < v; ++u) {
        if (degrees[u] != 0) {
          gap_has_edges = true;
          break;
        }
      }
      if (gap_has_edges) close_run();
    }
    while (cursor_row + 1 < manifest.p &&
           v >= manifest.boundaries[cursor_row + 1]) {
      ++cursor_row;
    }
    if (semi != nullptr) {
      row_locals[cursor_row].push_back(v - manifest.boundaries[cursor_row]);
    }
    if (run_segments.empty() || run_segments.back().row != cursor_row) {
      run_segments.push_back({cursor_row, 0, 0});
    }
    run_segments.back().edges += deg;
    run_segments.back().vertices += 1;
    run_bytes += deg * ranged_bytes_per_edge;
    run_edges += deg;
    prev_active = v;
  });
  close_run();
  d.seeks = seeks;
  d.index_bytes = index_bytes;

  // --- compressed on-demand edge bytes -------------------------------------
  // On-disk frames of the non-empty sub-blocks in every row a run touched:
  // the CSR index addresses decoded offsets, so a selective pass fetches
  // those frames whole (sequential, offset 0) and decodes them on the
  // compute side.
  std::uint64_t frame_bytes_on_demand = 0;
  std::uint64_t decoded_bytes_on_demand = 0;
  if (compressed) {
    for (std::uint32_t i = 0; i < manifest.p; ++i) {
      if (!rows_active[i]) continue;
      for (std::uint32_t j = 0; j < manifest.p; ++j) {
        const std::uint64_t edges = manifest.EdgesIn(i, j);
        if (edges == 0) continue;
        frame_bytes_on_demand += manifest.EdgeFileBytes(i, j);
        decoded_bytes_on_demand += edges * kEdgeBytes;
      }
    }
  }

  // --- the paper's two cost formulas ---------------------------------------
  // Edge terms use on-disk bytes (frame files when compressed, raw edge
  // arrays otherwise); for raw datasets the arithmetic below is identical
  // to the original |E|·(M[+W]) formulas.
  if (fciu_round) {
    // FCIU reloads the secondary sub-blocks (i > j) and amortizes the round
    // over two BSP iterations.
    std::uint64_t secondary_edges = 0;
    std::uint64_t secondary_file_bytes = 0;
    for (std::uint32_t i = 1; i < manifest.p; ++i) {
      for (std::uint32_t j = 0; j < i; ++j) {
        secondary_edges += manifest.EdgesIn(i, j);
        secondary_file_bytes += manifest.EdgeFileBytes(i, j);
      }
    }
    const std::uint64_t round_read =
        manifest.TotalEdgeFileBytes() + secondary_file_bytes +
        (manifest.num_edges + secondary_edges) * weight_bytes_per_edge +
        values_bytes;
    d.cost_full = 0.5 * (model_.SeqReadSeconds(round_read) +
                         model_.SeqWriteSeconds(values_bytes));
    if (compressed) {
      d.decode_seconds_full = 0.5 * model_.DecodeSeconds(
          (manifest.num_edges + secondary_edges) * kEdgeBytes);
    }
  } else {
    d.cost_full =
        model_.SeqReadSeconds(manifest.TotalEdgeFileBytes() +
                              manifest.num_edges * weight_bytes_per_edge +
                              values_bytes) +
        model_.SeqWriteSeconds(values_bytes);
    if (compressed) {
      d.decode_seconds_full =
          model_.DecodeSeconds(manifest.num_edges * kEdgeBytes);
    }
  }

  // Random requests are charged seek+transfer; the per-column request
  // amplification was accumulated run by run in close_run. Compressed frame
  // fetches stream sequentially and are recorded in S_seq so the decision
  // log shows the bytes that actually move.
  d.seq_bytes += frame_bytes_on_demand;
  d.cost_on_demand = model_.RandReadSeconds(d.rand_bytes, seeks) +
                     model_.SeqReadSeconds(d.seq_bytes) +
                     model_.SeqReadSeconds(index_bytes + values_bytes) +
                     model_.SeqWriteSeconds(values_bytes);
  d.decode_seconds_on_demand = model_.DecodeSeconds(decoded_bytes_on_demand);

  // --- semi-external cost C_m (DESIGN.md §14) ------------------------------
  // One plain iteration: stream the on-disk bytes of every non-empty
  // sub-block that survives the skip tests, plus the index-probe bytes of
  // unknown summaries (the executor pays that probe to learn them). No
  // vertex-values terms at all — semi mode keeps the state RAM-resident.
  // Buffer-resident sub-blocks cost nothing: the buffer holds decoded
  // blocks, so a hit neither reads nor decodes.
  if (semi != nullptr) {
    std::uint64_t semi_read_bytes = 0;
    std::uint64_t semi_probe_bytes = 0;
    std::uint64_t semi_decoded_bytes = 0;
    for (std::uint32_t i = 0; i < manifest.p; ++i) {
      const bool row_has_actives = !row_locals[i].empty();
      for (std::uint32_t j = 0; j < manifest.p; ++j) {
        const std::uint64_t edges = manifest.EdgesIn(i, j);
        if (edges == 0) continue;
        if (!row_has_actives ||
            (semi->summaries != nullptr &&
             semi->summaries->CanSkip(i, j, row_locals[i]))) {
          ++d.semi_skipped_blocks;
          d.semi_skipped_bytes +=
              manifest.EdgeFileBytes(i, j) + edges * weight_bytes_per_edge;
          continue;
        }
        if (semi->summaries != nullptr && !semi->summaries->Known(i, j) &&
            manifest.has_index) {
          semi_probe_bytes +=
              (static_cast<std::uint64_t>(manifest.IntervalSize(i)) + 1) *
              sizeof(std::uint32_t);
        }
        if (semi->buffer != nullptr && semi->buffer->Contains(i, j)) continue;
        semi_read_bytes +=
            manifest.EdgeFileBytes(i, j) + edges * weight_bytes_per_edge;
        if (compressed) semi_decoded_bytes += edges * kEdgeBytes;
      }
    }
    d.decode_seconds_semi = model_.DecodeSeconds(semi_decoded_bytes);
    d.cost_semi = model_.SeqReadSeconds(semi_read_bytes + semi_probe_bytes) +
                  d.decode_seconds_semi;
  }

  // Decode runs on the consumer's side of the pipeline but is paid in
  // full: each model costs its serial formula plus its decode.
  d.cost_on_demand += d.decode_seconds_on_demand;
  d.cost_full += d.decode_seconds_full;
  d.on_demand = d.cost_on_demand <= d.cost_full;
  if (semi != nullptr) {
    // Three-way: the semi model must beat the incumbent STRICTLY — on a tie
    // the two-way winner stands, so the paper's SCIU/FCIU schedule is never
    // perturbed by an equal-cost third option.
    d.semi = d.cost_semi < (d.on_demand ? d.cost_on_demand : d.cost_full);
  }
  d.eval_seconds = timer.Seconds();
  return d;
}

}  // namespace graphsd::core
