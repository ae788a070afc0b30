#include "core/sciu_executor.hpp"

#include <memory>
#include <utility>

#include "core/block_source.hpp"
#include "partition/dataset_verify.hpp"
#include "util/clock.hpp"

namespace graphsd::core {
namespace {

// Index entries are read per active run (never whole index files): nearby
// active vertices share one ranged offset read, so the index traffic scales
// with |A|, matching the paper's 2|V|·N bound for a full frontier.
constexpr VertexId kIndexCoalesceGap = 64;

}  // namespace

Status SciuExecutor::EnsureSubBlockVerified(std::uint32_t i, std::uint32_t j,
                                            bool need_weights) {
  const auto& dataset = *ctx_.dataset;
  const auto& manifest = dataset.manifest();
  if (!manifest.has_checksums) return Status::Ok();
  const std::size_t slot = manifest.SubBlockSlot(i, j);
  if (verified_[slot].load(std::memory_order_acquire)) return Status::Ok();

  const std::uint64_t edges = manifest.EdgesIn(i, j);
  const std::string& dir = dataset.dir();
  // Compressed datasets store the edge payload as a GSDF frame; the
  // manifest CRC covers the frame bytes, so that is what gets verified.
  Status status = partition::VerifyFileCrc(
      partition::SubBlockEdgesPath(dir, i, j), manifest.EdgeFileBytes(i, j),
      manifest.edge_crcs[slot]);
  if (status.ok() && need_weights) {
    status = partition::VerifyFileCrc(
        partition::SubBlockWeightsPath(dir, i, j), edges * kWeightBytes,
        manifest.weight_crcs[slot]);
  }
  if (status.ok() && manifest.has_index) {
    status = partition::VerifyFileCrc(
        partition::SubBlockIndexPath(dir, i, j),
        (static_cast<std::uint64_t>(manifest.IntervalSize(i)) + 1) *
            sizeof(std::uint32_t),
        manifest.index_crcs[slot]);
  }
  if (!status.ok()) {
    if (status.code() == StatusCode::kCorruptData) {
      dataset.device().stats().RecordChecksumFailure();
    }
    return status;
  }
  verified_[slot].store(true, std::memory_order_release);
  return Status::Ok();
}

Status SciuExecutor::FetchPass(std::uint32_t i, std::uint32_t j,
                               const IntervalActives& actives,
                               bool need_weights, bool resident,
                               SciuPassPayload& out) {
  const auto& dataset = *ctx_.dataset;
  const auto& manifest = dataset.manifest();
  const bool compressed = dataset.compressed();
  GRAPHSD_RETURN_IF_ERROR(EnsureSubBlockVerified(i, j, need_weights));
  GRAPHSD_ASSIGN_OR_RETURN(partition::IndexReader index_reader,
                           dataset.OpenIndexReader(i, j));
  // Compressed edge files cannot be range-read (they hold one GSDF frame),
  // so only the raw weight file gets a ranged reader; the frame itself is
  // fetched whole after the runs are known.
  partition::SubBlockReader reader;
  io::DeviceFile weights_file;
  if (!compressed) {
    GRAPHSD_ASSIGN_OR_RETURN(reader,
                             dataset.OpenSubBlockReader(i, j, need_weights));
  } else if (need_weights) {
    GRAPHSD_ASSIGN_OR_RETURN(
        weights_file,
        dataset.device().Open(partition::SubBlockWeightsPath(dataset.dir(), i, j),
                              io::OpenMode::kRead));
  }

  std::vector<std::uint32_t> offsets;  // scratch for ranged index reads
  // Coalesced runs in sub-block edge coordinates. Raw datasets submit the
  // whole script through ReadRuns after the index sweep (one vectored
  // request per batch on devices that merge; a plain ReadRange loop
  // otherwise); compressed datasets keep these coordinates for the consumer
  // to copy out of the decoded frame.
  std::vector<std::pair<std::uint64_t, std::uint64_t>> block_runs;
  std::uint64_t pending_begin = 0;
  std::uint64_t pending_end = 0;

  auto flush = [&]() -> Status {
    if (pending_end == pending_begin) return Status::Ok();
    block_runs.emplace_back(pending_begin, pending_end);
    if (compressed && need_weights) {
      // Weights read now, run-aligned, from the raw file.
      obs::TraceSpan span(ctx_.trace, "edge-read", trace_iteration_);
      const std::size_t base = out.weights.size();
      const std::uint64_t count = pending_end - pending_begin;
      out.weights.resize(base + count);
      GRAPHSD_RETURN_IF_ERROR(weights_file.ReadAt(
          pending_begin * sizeof(Weight),
          {reinterpret_cast<std::uint8_t*>(out.weights.data() + base),
           count * sizeof(Weight)}));
    }
    pending_begin = pending_end = 0;
    return Status::Ok();
  };

  for (const IntervalActives::Group& group : actives.groups) {
    const VertexId first_local = actives.locals[group.begin_pos];
    const VertexId last_local = actives.locals[group.end_pos - 1];
    {
      obs::TraceSpan span(ctx_.trace, "index-load", trace_iteration_);
      GRAPHSD_RETURN_IF_ERROR(index_reader.ReadOffsets(
          first_local, last_local - first_local + 2, offsets));
    }
    for (std::size_t pos = group.begin_pos; pos < group.end_pos; ++pos) {
      const VertexId local = actives.locals[pos];
      const std::uint64_t range_begin = offsets[local - first_local];
      const std::uint64_t range_end = offsets[local - first_local + 1];
      if (range_end < range_begin || range_end > manifest.EdgesIn(i, j)) {
        return CorruptDataError(
            partition::SubBlockIndexPath(dataset.dir(), i, j) +
            ": non-monotonic or out-of-range offsets for local vertex " +
            std::to_string(local));
      }
      if (range_begin == range_end) continue;
      if (pending_end == range_begin && pending_end > pending_begin) {
        pending_end = range_end;  // coalesce with the pending run
      } else {
        GRAPHSD_RETURN_IF_ERROR(flush());
        pending_begin = range_begin;
        pending_end = range_end;
      }
    }
  }
  GRAPHSD_RETURN_IF_ERROR(flush());
  if (compressed) {
    for (const auto& [run_begin, run_end] : block_runs) {
      out.runs.emplace_back(run_begin, run_end);
    }
    if (!out.runs.empty() && !resident) {
      // The whole frame streams sequentially; decode happens on the
      // consumer thread so the loader stays an I/O-only stage.
      obs::TraceSpan span(ctx_.trace, "edge-read", trace_iteration_);
      GRAPHSD_ASSIGN_OR_RETURN(
          out.fetched, dataset.FetchSubBlock(i, j, /*load_weights=*/false));
    }
    return Status::Ok();
  }
  if (!block_runs.empty()) {
    obs::TraceSpan span(ctx_.trace, "edge-read", trace_iteration_);
    std::size_t base = out.edges.size();
    for (const auto& [run_begin, run_end] : block_runs) {
      out.runs.emplace_back(base, base + (run_end - run_begin));
      base += run_end - run_begin;
    }
    GRAPHSD_RETURN_IF_ERROR(reader.ReadRuns(
        block_runs, out.edges, need_weights ? &out.weights : nullptr));
  }
  return Status::Ok();
}

Status SciuExecutor::RunIteration(const PushProgram& program,
                                  VertexState& state, const Frontier& active,
                                  Frontier& out, Frontier& out_ni,
                                  bool cross_iteration, RoundStat& stat,
                                  double* update_seconds) {
  const auto& dataset = *ctx_.dataset;
  const auto& manifest = dataset.manifest();
  const auto& degrees = dataset.out_degrees();
  trace_iteration_ = stat.first_iteration;
  const bool need_weights = program.needs_weights() && manifest.weighted;
  const std::uint64_t bytes_per_edge =
      kEdgeBytes + (need_weights ? kWeightBytes : 0);

  // --- contributions of the active set (iteration-t snapshot) -------------
  std::uint64_t active_edge_bytes = 0;
  {
    ScopedWallAccumulator acc(update_seconds);
    active.ForEachActive([&](std::size_t v) {
      program.MakeContribution(state, static_cast<VertexId>(v),
                               ContribSlot::kPrimary);
      active_edge_bytes += degrees[v] * bytes_per_edge;
    });
  }

  // Retain loaded edges only if they all fit the budget (all-or-nothing;
  // the cross-iteration step needs every edge of a qualifying vertex).
  const bool retain = cross_iteration &&
                      (ctx_.memory_budget_bytes == 0 ||
                       active_edge_bytes <= ctx_.memory_budget_bytes);
  std::vector<Edge> arena_edges;
  std::vector<Weight> arena_weights;
  if (retain) {
    arena_edges.reserve(active_edge_bytes / kEdgeBytes);
  }

  // --- selective sweep: rows with active vertices, all columns ------------
  // The per-interval active runs (and with them the whole read script) are
  // computed before the sweep starts; each (i, j) pass then streams through
  // the prefetch pipeline while earlier passes' edges are applied.
  const bool compressed = dataset.compressed();
  std::vector<IntervalActives> intervals(manifest.p);
  std::vector<io::PrefetchStream<SciuPassPayload>::Unit> units;
  // (i, j) of each planned pass, for the consumer side.
  std::vector<std::pair<std::uint32_t, std::uint32_t>> plan_coords;
  for (std::uint32_t i = 0; i < manifest.p; ++i) {
    const VertexId interval_begin = manifest.boundaries[i];
    const VertexId interval_end = manifest.boundaries[i + 1];
    IntervalActives& ia = intervals[i];
    active.ForEachActiveInRange(interval_begin, interval_end,
                                [&](std::size_t idx) {
                                  ia.locals.push_back(
                                      static_cast<VertexId>(idx) -
                                      interval_begin);
                                });
    if (ia.locals.empty()) continue;

    // Group nearby actives: one index read per group per sub-block.
    ia.groups.push_back({0, 1});
    for (std::size_t pos = 1; pos < ia.locals.size(); ++pos) {
      if (ia.locals[pos] - ia.locals[pos - 1] <= kIndexCoalesceGap) {
        ia.groups.back().end_pos = pos + 1;
      } else {
        ia.groups.push_back({pos, pos + 1});
      }
    }

    for (std::uint32_t j = 0; j < manifest.p; ++j) {
      if (manifest.EdgesIn(i, j) == 0) continue;
      // Compressed passes always run (index offsets and raw weight ranges
      // are read regardless of frame residency), so their "skip" probe only
      // records whether the decoded block is buffered at issue time; the
      // fetch closure then elides the frame read. The probe runs on the
      // consumer thread and the flag is published to the loader through the
      // loader submission, so no race. `intervals` is fully sized up
      // front, so the `actives` pointer stays valid.
      auto resident = std::make_shared<bool>(false);
      io::PrefetchStream<SciuPassPayload>::Unit unit;
      if (compressed) {
        unit.skip = [this, i, j, resident] {
          *resident = ctx_.buffer->Contains(i, j);
          return false;
        };
      }
      unit.fetch = [this, i, j, actives = &ia, need_weights,
                    resident](SciuPassPayload& out) {
        return FetchPass(i, j, *actives, need_weights, *resident, out);
      };
      units.push_back(std::move(unit));
      plan_coords.emplace_back(i, j);
    }
  }

  // Compressed passes acquire their decoded blocks through the shared
  // BlockSource; block weights are never needed (weight ranges are read
  // raw by FetchPass).
  BlockSource blocks(ctx_, /*need_weights=*/false, trace_iteration_);
  io::PrefetchStream<SciuPassPayload> stream(ctx_.prefetch, std::move(units),
                                             ctx_.cancel);
  for (std::size_t pass = 0; pass < stream.planned(); ++pass) {
    if (ctx_.cancel != nullptr) {
      GRAPHSD_RETURN_IF_ERROR(ctx_.cancel->Check());
    }
    auto item = stream.Take();
    GRAPHSD_RETURN_IF_ERROR(item.status);
    SciuPassPayload& payload = item.payload;
    const auto [i, j] = plan_coords[pass];
    if (compressed && !payload.runs.empty()) {
      std::uint64_t active_edges = 0;
      for (const auto& [run_begin, run_end] : payload.runs) {
        active_edges += run_end - run_begin;
      }
      // The decoded block: the pass's frame, else (resident at issue) the
      // buffer, else a reload. A block offered back is scored — and a hit
      // re-scored — by this pass's active edge count.
      GRAPHSD_ASSIGN_OR_RETURN(
          BlockSource::Block block,
          blocks.Acquire(i, j, std::move(payload.fetched)));
      if (block.from_buffer()) {
        ctx_.buffer->UpdatePriority(i, j, active_edges);
      }
      // Copy the active runs out of the decoded block, rebasing `runs` into
      // payload-local coordinates. The weights were read run-aligned by the
      // loader, so edges[k] and weights[k] line up as in the raw path.
      payload.edges.reserve(active_edges);
      for (auto& run : payload.runs) {
        const std::size_t base = payload.edges.size();
        payload.edges.insert(
            payload.edges.end(),
            block->edges.begin() + static_cast<std::ptrdiff_t>(run.first),
            block->edges.begin() + static_cast<std::ptrdiff_t>(run.second));
        run = {base, payload.edges.size()};
      }
      blocks.Offer(i, j, std::move(block), active_edges);
    }
    obs::TraceSpan compute_span(ctx_.trace, "compute", trace_iteration_);
    {
      // The runs tile [0, edges.size()) in read order (raw reads append;
      // compressed passes rebase above), so one apply over the whole
      // payload visits every edge in per-run order.
      ScopedWallAccumulator acc(update_seconds);
      ApplyPass pass =
          EdgePass(payload.edges, payload.weights, need_weights,
                   manifest.boundaries[j], manifest.boundaries[j + 1]);
      pass.activate = &out;
      program.ApplySpan(state, pass);
    }
    if (retain) {
      arena_edges.insert(arena_edges.end(), payload.edges.begin(),
                         payload.edges.end());
      if (need_weights) {
        arena_weights.insert(arena_weights.end(), payload.weights.begin(),
                             payload.weights.end());
      }
    }
  }

  // --- cross-iteration step (Algorithm 2, lines 15-23) ---------------------
  bool cross_step_ran = false;
  if (retain) {
    Frontier qualifying(active.size());
    std::uint64_t qualify_count = 0;
    out.ForEachActive([&](std::size_t v) {
      if (active.IsActive(static_cast<VertexId>(v))) {
        qualifying.Activate(static_cast<VertexId>(v));
        ++qualify_count;
      }
    });
    if (qualify_count > 0) {
      cross_step_ran = true;
      obs::TraceSpan span(ctx_.trace, "cross-iter-update", trace_iteration_);
      ScopedWallAccumulator acc(update_seconds);
      // Seal the re-activated vertices' fresh values, then push them into
      // iteration t+1 using the resident edges.
      qualifying.ForEachActive([&](std::size_t v) {
        program.MakeContribution(state, static_cast<VertexId>(v),
                                 ContribSlot::kSecondary);
      });
      // Retained edges span every destination interval, so the pass's
      // destination range is the whole vertex space.
      ApplyPass pass = EdgePass(arena_edges, arena_weights, need_weights, 0,
                                manifest.num_vertices);
      pass.contrib = ContribSlot::kSecondary;
      pass.sources = &qualifying;
      pass.activate = &out_ni;
      program.ApplySpan(state, pass);
      qualifying.ForEachActive(
          [&](std::size_t v) { out.Deactivate(static_cast<VertexId>(v)); });
    }
  }

  stat.model = RoundModel::kSciu;
  // When the cross-iteration step consumed every activation (the t+1
  // frontier was exactly the re-activated set, whose retained edges were
  // all pushed) and produced no further activations, BSP iteration t+1 ran
  // to completion inside this round.
  stat.iterations_covered =
      cross_step_ran && out.Empty() && out_ni.Empty() ? 2 : 1;
  return Status::Ok();
}

}  // namespace graphsd::core
