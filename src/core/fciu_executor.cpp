#include "core/fciu_executor.hpp"

#include <vector>

#include "core/block_source.hpp"
#include "util/clock.hpp"

namespace graphsd::core {
namespace {

using Plan = BlockSource::Plan;

/// Column-major (j, i) sweep over every non-empty sub-block.
Plan FullSweep(const partition::GridManifest& manifest) {
  Plan plan;
  for (std::uint32_t j = 0; j < manifest.p; ++j) {
    for (std::uint32_t i = 0; i < manifest.p; ++i) {
      if (manifest.EdgesIn(i, j) != 0) plan.emplace_back(i, j);
    }
  }
  return plan;
}

/// Row-major sweep over the non-empty secondary sub-blocks (i > j) of the
/// rows `keep_row(i)` accepts.
template <typename KeepRow>
Plan SecondarySweep(const partition::GridManifest& manifest, KeepRow&& keep_row) {
  Plan plan;
  for (std::uint32_t i = 1; i < manifest.p; ++i) {
    if (!keep_row(i)) continue;
    for (std::uint32_t j = 0; j < i; ++j) {
      if (manifest.EdgesIn(i, j) != 0) plan.emplace_back(i, j);
    }
  }
  return plan;
}

/// The semi round's plan: the column-major sweep minus every sub-block
/// elided before any edge I/O, which is one that
///   1. has no active vertex in its whole source row;
///   2. has a recorded summary proving no active source has edges in it;
///   3. had an unknown summary, which one accounted index probe recorded
///      (RecordFromOffsets), and the fresh summary proves the same.
/// Elided blocks are counted in `stat`. Survivors get their summaries
/// recorded from their decoded edges on acquisition, so later rounds skip
/// them without the probe.
Plan SkipFilteredSweep(const ExecContext& ctx, const Frontier& active,
                       bool need_weights, std::uint32_t iteration,
                       RoundStat& stat) {
  const auto& dataset = *ctx.dataset;
  const auto& manifest = dataset.manifest();
  SkipSummaryStore* summaries = ctx.summaries;
  // Active source vertices of each interval, as ascending local ids — the
  // per-row input to every skip test.
  std::vector<std::vector<VertexId>> row_actives(manifest.p);
  for (std::uint32_t i = 0; i < manifest.p; ++i) {
    const VertexId first = manifest.boundaries[i];
    active.ForEachActiveInRange(first, manifest.boundaries[i + 1],
                                [&](std::size_t v) {
                                  row_actives[i].push_back(
                                      static_cast<VertexId>(v) - first);
                                });
  }
  Plan plan;
  for (std::uint32_t j = 0; j < manifest.p; ++j) {
    for (std::uint32_t i = 0; i < manifest.p; ++i) {
      if (manifest.EdgesIn(i, j) == 0) continue;
      const std::vector<VertexId>& actives = row_actives[i];
      if (!actives.empty() && summaries != nullptr &&
          !summaries->Known(i, j) && manifest.has_index) {
        obs::TraceSpan span(ctx.trace, "index-load", iteration);
        auto offsets = dataset.LoadIndex(i, j);
        if (offsets.ok()) summaries->RecordFromOffsets(i, j, *offsets);
      }
      if (actives.empty() ||
          (summaries != nullptr && summaries->CanSkip(i, j, actives))) {
        ++stat.blocks_skipped;
        stat.blocks_skipped_bytes +=
            dataset.SubBlockDiskBytes(i, j, need_weights);
        continue;
      }
      plan.emplace_back(i, j);
    }
  }
  return plan;
}

/// The column-major first half shared by push and gather rounds. Each
/// planned block is acquired and handed to `apply(i, j, block)`, which
/// returns the block's buffer priority. In a two-iteration round the
/// diagonal (j, j) is held until its column seals; otherwise a block is
/// offered back when `offer_all` is set or it is secondary (i > j). After
/// each column, `seal(j, diagonal)` runs with the held diagonal or null.
template <typename Apply, typename Seal>
Status SweepColumns(const ExecContext& ctx, BlockSource& source,
                    const Plan& plan, bool two_iterations, bool offer_all,
                    Apply&& apply, Seal&& seal) {
  BlockSource::Stream stream = source.Open(plan);
  std::size_t next = 0;
  for (std::uint32_t j = 0; j < ctx.dataset->manifest().p; ++j) {
    BlockSource::Block diagonal;
    bool have_diagonal = false;
    for (; next < plan.size() && plan[next].second == j; ++next) {
      const std::uint32_t i = plan[next].first;
      const bool offer = offer_all || i > j;
      GRAPHSD_ASSIGN_OR_RETURN(BlockSource::Block block,
                               source.Acquire(stream, i, j));
      const std::uint64_t priority = apply(i, j, *block);
      if (two_iterations && i == j) {
        // Held as acquired until the seal: a buffer hit keeps its pin, a
        // fetched block its own payload. Never copied.
        diagonal = std::move(block);
        have_diagonal = true;
      } else if (offer) {
        source.Offer(i, j, std::move(block), priority);
      }
    }
    seal(j, have_diagonal ? &*diagonal : nullptr);
  }
  return Status::Ok();
}

/// Acquires every block of `plan` in order and hands it to
/// `apply(j, block)` — the second half of a two-iteration round.
template <typename Apply>
Status SweepBlocks(BlockSource& source, const Plan& plan, Apply&& apply) {
  BlockSource::Stream stream = source.Open(plan);
  for (const auto& [i, j] : plan) {
    GRAPHSD_ASSIGN_OR_RETURN(BlockSource::Block block,
                             source.Acquire(stream, i, j));
    apply(j, *block);
  }
  return Status::Ok();
}

}  // namespace

Status FciuExecutor::RunPushRound(const PushProgram& program,
                                  VertexState& state, const Frontier& active,
                                  Frontier& out, Frontier& out_ni,
                                  RoundModel kind, RoundStat& stat,
                                  double* update_seconds) {
  const auto& manifest = ctx_.dataset->manifest();
  const std::uint32_t iteration = stat.first_iteration;
  const bool need_weights = program.needs_weights() && manifest.weighted;
  const bool two_iterations = kind == RoundModel::kFciu;
  const bool semi = kind == RoundModel::kSemi;
  BlockSource source(ctx_, need_weights, iteration);

  // Iteration-t contributions of the active frontier.
  {
    ScopedWallAccumulator acc(update_seconds);
    active.ForEachActive([&](std::size_t v) {
      program.MakeContribution(state, static_cast<VertexId>(v),
                               ContribSlot::kPrimary);
    });
  }
  // Iteration-t+1 pushes from sealed sources (`out`) into `out_ni`.
  const auto push_secondary = [&](std::uint32_t j,
                                  const partition::SubBlock& block) {
    ApplyPass pass = EdgePass(block.edges, block.weights, need_weights,
                              manifest.boundaries[j],
                              manifest.boundaries[j + 1]);
    pass.contrib = ContribSlot::kSecondary;
    pass.sources = &out;
    pass.activate = &out_ni;
    program.ApplySpan(state, pass);
  };

  // --- first half: iteration t, column-major ------------------------------
  // Secondary sub-blocks go back to the priority buffer for the second half
  // of the round (and future rounds); in a semi round every block is a
  // re-read candidate, scored by the active edges it just served.
  const Plan plan =
      semi ? SkipFilteredSweep(ctx_, active, need_weights, iteration, stat)
           : FullSweep(manifest);
  GRAPHSD_RETURN_IF_ERROR(SweepColumns(
      ctx_, source, plan, two_iterations, /*offer_all=*/semi,
      [&](std::uint32_t i, std::uint32_t j, const partition::SubBlock& block) {
        // UserFunction pass (iteration t), guarded by the active frontier.
        // The edges it applies are the block's provisional buffer priority.
        std::uint64_t provisional_priority = 0;
        {
          obs::TraceSpan span(ctx_.trace, "compute", iteration);
          ScopedWallAccumulator acc(update_seconds);
          ApplyPass pass = EdgePass(block.edges, block.weights, need_weights,
                                    manifest.boundaries[j],
                                    manifest.boundaries[j + 1]);
          pass.sources = &active;
          pass.activate = &out;
          provisional_priority = program.ApplySpan(state, pass);
        }
        if (two_iterations && i < j) {
          // CrossIterUpdate: interval i sealed when column i completed, so
          // these edges produce iteration t+1 values from the same copy.
          obs::TraceSpan span(ctx_.trace, "cross-iter-update", iteration);
          ScopedWallAccumulator acc(update_seconds);
          push_secondary(j, block);
        }
        return provisional_priority;
      },
      [&](std::uint32_t j, const partition::SubBlock* diagonal) {
        // Column j complete: interval j sealed for iteration t.
        if (!two_iterations) return;
        obs::TraceSpan span(ctx_.trace, "cross-iter-update", iteration);
        ScopedWallAccumulator acc(update_seconds);
        out.ForEachActiveInRange(
            manifest.boundaries[j], manifest.boundaries[j + 1],
            [&](std::size_t v) {
              program.MakeContribution(state, static_cast<VertexId>(v),
                                       ContribSlot::kSecondary);
            });
        if (diagonal != nullptr) push_secondary(j, *diagonal);
      }));

  stat.model = kind;
  if (!two_iterations) {
    stat.iterations_covered = 1;
    return Status::Ok();
  }

  // Re-score buffer priorities now that `out` (the t+1 frontier) is final:
  // a cached secondary block is worth keeping in proportion to the edges it
  // will serve in the second half. One atomic sweep under the buffer lock.
  ctx_.buffer->Rescore([&](std::uint32_t, std::uint32_t,
                           const partition::SubBlock& block) {
    std::uint64_t priority = 0;
    for (const Edge& edge : block.edges) {
      if (out.IsActive(edge.src)) ++priority;
    }
    return priority;
  });

  // --- second half: iteration t+1 over the secondary sub-blocks (i > j) ---
  // `out` is final, so the sweep — rows with sealed sources only — is fully
  // known up front and streams ahead of the applies.
  const Plan second = SecondarySweep(manifest, [&](std::uint32_t i) {
    return out.CountInRange(manifest.boundaries[i],
                            manifest.boundaries[i + 1]) != 0;
  });
  GRAPHSD_RETURN_IF_ERROR(SweepBlocks(
      source, second,
      [&](std::uint32_t j, const partition::SubBlock& block) {
        obs::TraceSpan span(ctx_.trace, "cross-iter-update", iteration);
        ScopedWallAccumulator acc(update_seconds);
        push_secondary(j, block);
      }));

  // The round only spans two BSP iterations when iteration t actually
  // produced a t+1 frontier; with `out` empty the second half was vacuous
  // and the round degenerates to a single iteration.
  stat.iterations_covered = out.Empty() ? 1 : 2;
  return Status::Ok();
}

Status FciuExecutor::RunGatherRound(const GatherProgram& program,
                                    VertexState& state, bool two_iterations,
                                    RoundStat& stat, double* update_seconds) {
  const auto& manifest = ctx_.dataset->manifest();
  const std::uint32_t iteration = stat.first_iteration;
  const bool need_weights = program.needs_weights() && manifest.weighted;
  const VertexId n = manifest.num_vertices;
  BlockSource source(ctx_, need_weights, iteration);

  {
    ScopedWallAccumulator acc(update_seconds);
    for (VertexId v = 0; v < n; ++v) {
      program.MakeContribution(state, v, ContribSlot::kPrimary);
    }
    program.ResetAccum(state, AccumSlot::kA);
    if (two_iterations) program.ResetAccum(state, AccumSlot::kB);
  }
  // Accumulates every edge of `block` from `contrib` into `accum`.
  const auto accumulate = [&](std::uint32_t j, const partition::SubBlock& block,
                              ContribSlot contrib, AccumSlot accum) {
    ApplyPass pass = EdgePass(block.edges, block.weights, need_weights,
                              manifest.boundaries[j],
                              manifest.boundaries[j + 1]);
    pass.contrib = contrib;
    pass.accum = accum;
    program.ApplySpan(state, pass);
  };

  GRAPHSD_RETURN_IF_ERROR(SweepColumns(
      ctx_, source, FullSweep(manifest), two_iterations, /*offer_all=*/false,
      [&](std::uint32_t i, std::uint32_t j, const partition::SubBlock& block) {
        obs::TraceSpan span(ctx_.trace, "compute", iteration);
        ScopedWallAccumulator acc(update_seconds);
        accumulate(j, block, ContribSlot::kPrimary, AccumSlot::kA);
        if (two_iterations && i < j) {
          accumulate(j, block, ContribSlot::kSecondary, AccumSlot::kB);
        }
        // All edges are live in gather mode: priority = edge count.
        return static_cast<std::uint64_t>(block.edges.size());
      },
      [&](std::uint32_t j, const partition::SubBlock* diagonal) {
        const VertexId begin = manifest.boundaries[j];
        const VertexId end = manifest.boundaries[j + 1];
        ScopedWallAccumulator acc(update_seconds);
        program.Finalize(state, begin, end, AccumSlot::kA);
        if (!two_iterations) return;
        for (VertexId v = begin; v < end; ++v) {
          program.MakeContribution(state, v, ContribSlot::kSecondary);
        }
        if (diagonal != nullptr) {
          accumulate(j, *diagonal, ContribSlot::kSecondary, AccumSlot::kB);
        }
      }));

  if (!two_iterations) {
    stat.model = RoundModel::kPlainFull;
    stat.iterations_covered = 1;
    return Status::Ok();
  }

  GRAPHSD_RETURN_IF_ERROR(SweepBlocks(
      source, SecondarySweep(manifest, [](std::uint32_t) { return true; }),
      [&](std::uint32_t j, const partition::SubBlock& block) {
        obs::TraceSpan span(ctx_.trace, "cross-iter-update", iteration);
        ScopedWallAccumulator acc(update_seconds);
        accumulate(j, block, ContribSlot::kSecondary, AccumSlot::kB);
      }));
  {
    ScopedWallAccumulator acc(update_seconds);
    program.Finalize(state, 0, n, AccumSlot::kB);
  }

  stat.model = RoundModel::kFciu;
  stat.iterations_covered = 2;
  return Status::Ok();
}

}  // namespace graphsd::core
