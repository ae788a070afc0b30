// Sub-block acquisition shared by every executor (DESIGN.md §8, §10, §14):
// the FCIU push and gather rounds, semi rounds and SCIU's compressed passes
// fetch, acquire and offer edge blocks through one BlockSource. A fetch unit
// is skipped at issue time when the buffer holds its block (counter-free
// Contains). On a compressed dataset it also decodes, on the reader thread.
// Every acquisition records the block's active-source skip summary.
#pragma once

#include <cstdint>
#include <utility>
#include <vector>

#include "core/exec_context.hpp"
#include "io/prefetch.hpp"
#include "util/status.hpp"

namespace graphsd::core {

class BlockSource {
 public:
  /// The stream carries fetched payloads, already decoded by the fetch unit.
  using Stream = io::PrefetchStream<partition::SubBlockPayload>;
  /// An ordered sweep of (i, j) sub-blocks.
  using Plan = std::vector<std::pair<std::uint32_t, std::uint32_t>>;

  /// A consumed sub-block: either pinned in the buffer (the pin keeps the
  /// entry alive for the lifetime of this struct, even under concurrent
  /// Puts from other runs) or held in `local`.
  struct Block {
    SubBlockBuffer::Pin pin;
    partition::SubBlock local;

    const partition::SubBlock& operator*() const noexcept {
      return pin ? *pin : local;
    }
    const partition::SubBlock* operator->() const noexcept { return &**this; }
    /// False when the block came from disk, i.e. Offer() would insert it.
    bool from_buffer() const noexcept { return static_cast<bool>(pin); }
  };

  /// `need_weights` selects whether blocks carry their weights (a hit on
  /// a weightless entry then counts as a miss). `trace_iteration` labels
  /// every span, including those recorded on the loader thread.
  BlockSource(const ExecContext& ctx, bool need_weights,
              std::uint32_t trace_iteration)
      : ctx_(ctx), need_weights_(need_weights), iteration_(trace_iteration) {}

  /// Opens a prefetch stream over `plan`, one fetch unit per sub-block.
  Stream Open(const Plan& plan) const;

  /// Consumes the next unit of `stream`, which must be (i, j), after a
  /// cancellation poll: buffer hit, else the fetched payload, else a
  /// synchronous reload.
  Result<Block> Acquire(Stream& stream, std::uint32_t i, std::uint32_t j);

  /// SCIU compressed pass: `fetched` holds the frame the pass read, or no
  /// frame when the block was buffer-resident at issue time — then a
  /// buffer hit, else a synchronous reload. The frame decodes on the
  /// calling thread.
  Result<Block> Acquire(std::uint32_t i, std::uint32_t j,
                        partition::SubBlockPayload fetched);

  /// Donates a block read from disk to the buffer with `priority`; no-op
  /// for a buffer hit (`from_buffer()`).
  void Offer(std::uint32_t i, std::uint32_t j, Block block,
             std::uint64_t priority) const;

 private:
  Block Hit(std::uint32_t i, std::uint32_t j, SubBlockBuffer::Pin cached) const;
  /// Decodes a fetched payload still holding its frame.
  Result<Block> Decode(std::uint32_t i, std::uint32_t j,
                       partition::SubBlockPayload payload) const;
  Result<Block> Reload(std::uint32_t i, std::uint32_t j) const;
  void RecordSummary(std::uint32_t i, std::uint32_t j,
                     const partition::SubBlock& block) const;

  const ExecContext& ctx_;
  bool need_weights_;
  std::uint32_t iteration_;
};

}  // namespace graphsd::core
