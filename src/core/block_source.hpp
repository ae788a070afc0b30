// Sub-block acquisition shared by every executor (DESIGN.md §8, §10, §14):
// the FCIU push and gather rounds, semi rounds and SCIU's compressed passes
// fetch, acquire and offer edge blocks through one BlockSource. A fetch unit
// is skipped at issue time when the buffer holds its block (counter-free
// Contains). With parallel compute it also decodes, on the loader thread,
// except in cache-compressed mode, where the consumer needs the undecoded
// frame for its buffer offer. Every acquisition records the block's
// active-source skip summary.
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
  /// The stream carries fetched payloads: undecoded frames unless the
  /// fetch unit decoded them (parallel compute).
  using Stream = io::PrefetchStream<partition::SubBlockPayload>;
  /// An ordered sweep of (i, j) sub-blocks.
  using Plan = std::vector<std::pair<std::uint32_t, std::uint32_t>>;

  /// A consumed sub-block: either pinned in the buffer (the pin keeps the
  /// entry alive for the lifetime of this struct, even under concurrent
  /// Puts from other runs) or held in `local`.
  struct Block {
    SubBlockBuffer::Pin pin;
    partition::SubBlock local;
    /// The buffer already holds this sub-block although `local` is used (a
    /// compressed entry decoded on hit): it must not be offered back.
    bool resident = false;
    /// Undecoded frame kept for a PutFrame offer (cache-compressed mode).
    std::vector<std::uint8_t> frame;

    const partition::SubBlock& operator*() const noexcept {
      return pin ? *pin : local;
    }
    const partition::SubBlock* operator->() const noexcept { return &**this; }
    bool from_buffer() const noexcept { return static_cast<bool>(pin); }
    /// True when the block came from disk, i.e. Offer() would insert it.
    bool offerable() const noexcept { return !pin && !resident; }
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
  /// synchronous reload (offered decoded, like a synchronous load). With
  /// `keep_frame`, a fetched compressed frame is kept for Offer().
  Result<Block> Acquire(Stream& stream, std::uint32_t i, std::uint32_t j,
                        bool keep_frame);

  /// SCIU compressed pass: `fetched` holds the frame the pass read, or no
  /// frame when the block was buffer-resident at issue time — then a
  /// buffer hit, else a synchronous reload. `keep_frame` applies to both
  /// the fetched and the reloaded frame.
  Result<Block> Acquire(std::uint32_t i, std::uint32_t j,
                        partition::SubBlockPayload fetched, bool keep_frame);

  /// Donates an offerable block to the buffer with `priority`; no-op for
  /// blocks the buffer already holds.
  void Offer(std::uint32_t i, std::uint32_t j, Block block,
             std::uint64_t priority) const;

 private:
  Result<Block> Hit(std::uint32_t i, std::uint32_t j,
                    SubBlockBuffer::Pin cached) const;
  /// Decodes a fetched payload (keeping its frame first when asked).
  Result<Block> Decode(std::uint32_t i, std::uint32_t j,
                       partition::SubBlockPayload payload,
                       bool keep_frame) const;
  Result<Block> Reload(std::uint32_t i, std::uint32_t j,
                       bool keep_frame) const;
  void RecordSummary(std::uint32_t i, std::uint32_t j,
                     const partition::SubBlock& block) const;

  const ExecContext& ctx_;
  bool need_weights_;
  std::uint32_t iteration_;
};

}  // namespace graphsd::core
