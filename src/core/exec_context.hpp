// Shared execution context handed to the update-model executors: built once
// per run by GraphSDEngine::RunScope; every edge-block acquisition goes
// through a BlockSource over it (core/block_source.hpp).
#pragma once

#include <cstddef>
#include <cstdint>

#include "core/skip_summary.hpp"
#include "core/sub_block_buffer.hpp"
#include "io/prefetch.hpp"
#include "obs/trace.hpp"
#include "partition/grid_dataset.hpp"
#include "util/cancellation.hpp"
#include "util/thread_pool.hpp"

namespace graphsd::core {

struct ExecContext {
  const partition::GridDataset* dataset = nullptr;
  ThreadPool* pool = nullptr;
  /// May be a disabled (capacity 0) buffer; never null.
  SubBlockBuffer* buffer = nullptr;
  /// Asynchronous read pipeline. May be null or disabled (depth 0), in
  /// which case the executors run their fetches inline (synchronous path).
  io::PrefetchPipeline* prefetch = nullptr;
  /// Phase-trace sink. Null (the default) disables tracing entirely; spans
  /// then cost one pointer compare. Strictly passive — attaching a buffer
  /// never changes bytes read, decisions or results.
  obs::TraceBuffer* trace = nullptr;
  /// Memory budget for SCIU's in-memory retention of loaded active edges
  /// (the precondition for its cross-iteration step).
  std::uint64_t memory_budget_bytes = 0;
  /// Destination-range shards per compute pass (core/sharded_apply.hpp).
  /// <= 1 runs every apply loop serially — the bit-exact reference path.
  /// Results are bit-identical at any value; this only trades the S-fold
  /// edge re-scan against apply parallelism.
  std::size_t compute_shards = 1;
  /// Accumulates the wall time sharded applies lost to running more shards
  /// than the machine has cores (Σ elapsed − longest shard per pass); see
  /// core/sharded_apply.hpp. Null disables the measurement. Written only on
  /// the executor's apply path (single-threaded at that point), strictly
  /// passive.
  double* apply_excess = nullptr;
  /// Cooperative-cancellation token polled at fetch boundaries (before each
  /// sub-block / pass load, never per edge). Null = not cancellable. A
  /// tripped token makes the executor return kCancelled without committing
  /// the round; the engine then rolls back to the last committed iteration
  /// boundary.
  const CancellationToken* cancel = nullptr;
  /// Active-source skip summaries (DESIGN.md §14). Null disables both
  /// recording and skipping. BlockSource records a sub-block's summary
  /// whenever its decoded edges are in hand; semi rounds additionally
  /// consult it to skip sub-blocks before any edge I/O.
  SkipSummaryStore* summaries = nullptr;
  /// Cache compressed GSDF frames in the sub-block buffer instead of
  /// decoded edges (decode-on-hit): ~codec-ratio more sub-blocks fit the
  /// same byte budget, at one decode per hit charged to compute. No effect
  /// on raw datasets.
  bool cache_compressed = false;
};

}  // namespace graphsd::core
