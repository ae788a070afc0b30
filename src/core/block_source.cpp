#include "core/block_source.hpp"

namespace graphsd::core {

BlockSource::Stream BlockSource::Open(const Plan& plan) const {
  const partition::GridDataset* dataset = ctx_.dataset;
  SubBlockBuffer* buffer = ctx_.buffer;
  std::vector<Stream::Unit> units;
  units.reserve(plan.size());
  for (const auto& [i, j] : plan) {
    Stream::Unit unit;
    unit.skip = [buffer, i = i, j = j] { return buffer->Contains(i, j); };
    unit.fetch = [dataset, i = i, j = j, need_weights = need_weights_,
                  trace = ctx_.trace,
                  iteration = iteration_](partition::SubBlockPayload& out) {
      {
        obs::TraceSpan span(trace, "edge-read", iteration);
        GRAPHSD_ASSIGN_OR_RETURN(out,
                                 dataset->FetchSubBlock(i, j, need_weights));
      }
      if (dataset->compressed()) {
        obs::TraceSpan span(trace, "decode", iteration);
        GRAPHSD_RETURN_IF_ERROR(dataset->DecodeSubBlock(i, j, out));
      }
      return Status::Ok();
    };
    units.push_back(std::move(unit));
  }
  return Stream(ctx_.prefetch, std::move(units), ctx_.cancel);
}

Result<BlockSource::Block> BlockSource::Acquire(Stream& stream, std::uint32_t i,
                                                std::uint32_t j) {
  // Cooperative-cancellation poll point: every stream consumer funnels
  // through here, so a tripped token stops the round within one sub-block's
  // worth of work. The stream skips its fetches not yet started and its
  // destructor waits out those already in flight.
  if (ctx_.cancel != nullptr) {
    GRAPHSD_RETURN_IF_ERROR(ctx_.cancel->Check());
  }
  Stream::Item item;
  {
    // The consumer's wait on the loader (zero when the unit is already
    // fetched, or the fetch itself at depth 0).
    obs::TraceSpan span(ctx_.trace, "prefetch-wait", iteration_);
    item = stream.Take();
  }
  // With a private per-run buffer, blocks only ever enter it when they
  // themselves are consumed, so a block absent at issue time cannot be
  // resident at consume time — a fetched payload never shadows a cached
  // copy (no double read). Under a shared buffer another run may have
  // inserted the block between issue and consume; the fetched payload is
  // then simply dropped and the cached copy (pinned, so stable) wins.
  if (SubBlockBuffer::Pin cached = ctx_.buffer->Get(i, j, need_weights_);
      cached) {
    return Hit(i, j, std::move(cached));
  }
  if (item.fetched) {
    GRAPHSD_RETURN_IF_ERROR(item.status);
    return Decode(i, j, std::move(item.payload));
  }
  return Reload(i, j);
}

Result<BlockSource::Block> BlockSource::Acquire(
    std::uint32_t i, std::uint32_t j, partition::SubBlockPayload fetched) {
  if (!fetched.frame.empty()) return Decode(i, j, std::move(fetched));
  if (SubBlockBuffer::Pin cached = ctx_.buffer->Get(i, j, need_weights_);
      cached) {
    return Hit(i, j, std::move(cached));
  }
  return Reload(i, j);
}

BlockSource::Block BlockSource::Hit(std::uint32_t i, std::uint32_t j,
                                    SubBlockBuffer::Pin cached) const {
  RecordSummary(i, j, *cached);
  Block block;
  block.pin = std::move(cached);
  return block;
}

Result<BlockSource::Block> BlockSource::Decode(
    std::uint32_t i, std::uint32_t j,
    partition::SubBlockPayload payload) const {
  Block block;
  // An empty frame means the dataset is raw or the fetch unit already
  // decoded — nothing left for this thread.
  if (!payload.frame.empty()) {
    obs::TraceSpan span(ctx_.trace, "decode", iteration_);
    GRAPHSD_RETURN_IF_ERROR(ctx_.dataset->DecodeSubBlock(i, j, payload));
  }
  block.local = std::move(payload.block);
  RecordSummary(i, j, block.local);
  return block;
}

Result<BlockSource::Block> BlockSource::Reload(std::uint32_t i,
                                               std::uint32_t j) const {
  partition::SubBlockPayload payload;
  {
    obs::TraceSpan span(ctx_.trace, "edge-read", iteration_);
    GRAPHSD_ASSIGN_OR_RETURN(payload,
                             ctx_.dataset->FetchSubBlock(i, j, need_weights_));
  }
  return Decode(i, j, std::move(payload));
}

void BlockSource::Offer(std::uint32_t i, std::uint32_t j, Block block,
                        std::uint64_t priority) const {
  if (!block.from_buffer()) {
    ctx_.buffer->Put(i, j, std::move(block.local), priority);
  }
}

void BlockSource::RecordSummary(std::uint32_t i, std::uint32_t j,
                                const partition::SubBlock& block) const {
  if (ctx_.summaries == nullptr) return;
  ctx_.summaries->RecordFromEdges(i, j, block.edges,
                                  ctx_.dataset->manifest().boundaries[i]);
}

}  // namespace graphsd::core
