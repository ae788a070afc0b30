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

namespace graphsd::core {

struct ExecContext {
  const partition::GridDataset* dataset = nullptr;
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
};

}  // namespace graphsd::core
