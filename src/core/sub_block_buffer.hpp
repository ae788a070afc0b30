// Priority buffer for secondary sub-blocks (paper §4.3).
//
// FCIU loads secondary sub-blocks (i > j) twice per round. This buffer
// caches them under a byte budget; the priority of a cached sub-block is
// the number of active edges it holds, and the lowest-priority entry is
// evicted when space is needed. Priorities are updated after the block is
// processed in the first half of the round, as the paper describes.
//
// Every entry is a decoded sub-block (edges, and weights when loaded), so a
// hit costs nothing beyond the pointer; compressed datasets are decoded
// before their blocks are offered (DESIGN.md §14). An entry's payload lives
// in buffers leased from the device's pool; evicting, replacing or
// clearing the entry returns them (DESIGN.md §15). Capacity is charged at
// each entry's decoded footprint, and a hit credits the same figure to
// bytes_saved. Every accounting site uses that one stored_bytes figure, so
// `size_bytes()` always equals the sum over residents (see AuditUsedBytes).
//
// Thread safety: every method is safe to call from any thread — one
// internal mutex guards the map, the byte budget and all counters, so
// hit/miss/eviction accounting stays exact under concurrent Get/Put
// (DESIGN.md §13). Get() hands out a RAII `Pin` instead of a raw pointer:
// while a pin is live its entry cannot be evicted, replaced or erased, so
// one engine run's working set cannot be invalidated mid-pass by another
// run sharing the buffer (the `graphsd serve` shared buffer tier).
#pragma once

#include <cstdint>
#include <mutex>
#include <unordered_map>

#include "partition/grid_dataset.hpp"

namespace graphsd::obs {
class MetricsRegistry;
}  // namespace graphsd::obs

namespace graphsd::core {

class SubBlockBuffer {
 public:
  /// `capacity_bytes == 0` disables the buffer entirely.
  explicit SubBlockBuffer(std::uint64_t capacity_bytes)
      : capacity_(capacity_bytes) {}

  SubBlockBuffer(const SubBlockBuffer&) = delete;
  SubBlockBuffer& operator=(const SubBlockBuffer&) = delete;

  /// Movable handle to a cached block. While live, the entry is pinned:
  /// eviction, replacement and Erase/Clear all skip it, so the pointers
  /// stay valid even when other threads Put into the same buffer.
  class Pin {
   public:
    Pin() = default;
    Pin(Pin&& other) noexcept { *this = std::move(other); }
    Pin& operator=(Pin&& other) noexcept {
      if (this != &other) {
        Release();
        buffer_ = other.buffer_;
        key_ = other.key_;
        block_ = other.block_;
        other.buffer_ = nullptr;
        other.block_ = nullptr;
      }
      return *this;
    }
    Pin(const Pin&) = delete;
    Pin& operator=(const Pin&) = delete;
    ~Pin() { Release(); }

    const partition::SubBlock* get() const noexcept { return block_; }
    const partition::SubBlock& operator*() const noexcept { return *block_; }
    const partition::SubBlock* operator->() const noexcept { return block_; }
    explicit operator bool() const noexcept { return block_ != nullptr; }

    /// Drops the pin early (before scope exit). Safe on an empty pin.
    void Release() noexcept {
      if (buffer_ != nullptr && block_ != nullptr) buffer_->Unpin(key_);
      buffer_ = nullptr;
      block_ = nullptr;
    }

   private:
    friend class SubBlockBuffer;
    Pin(SubBlockBuffer* buffer, std::uint64_t key,
        const partition::SubBlock* block)
        : buffer_(buffer), key_(key), block_(block) {}

    SubBlockBuffer* buffer_ = nullptr;
    std::uint64_t key_ = 0;
    const partition::SubBlock* block_ = nullptr;
  };

  bool enabled() const noexcept { return capacity_ > 0; }
  std::uint64_t capacity_bytes() const noexcept { return capacity_; }
  std::uint64_t size_bytes() const;
  std::size_t entry_count() const;
  /// Number of entries currently held by at least one live Pin.
  std::size_t pinned_count() const;

  /// Recomputes the byte budget from the resident entries under the lock.
  /// Invariant check for tests: must equal size_bytes() at every quiescent
  /// point — a divergence means some accounting site charged stored bytes
  /// it never released (the satellite-3 audit).
  std::uint64_t AuditUsedBytes() const;

  /// Pinned handle to cached block (i, j), or an empty pin. Bumps the
  /// hit/miss counters. With `require_weights`, an entry whose edges were
  /// cached without their weights (a weightless SCIU decode meeting a
  /// weighted FCIU consumer) counts as a miss, so the caller reloads
  /// instead of applying garbage.
  Pin Get(std::uint32_t i, std::uint32_t j, bool require_weights = false);

  /// Issue-time residency probe for the prefetch pipeline. Deliberately
  /// bumps no counters: the consumer still calls Get() exactly once per
  /// sub-block, keeping hit/miss accounting identical to the synchronous
  /// path.
  bool Contains(std::uint32_t i, std::uint32_t j) const;

  /// Inserts block (i,j) with `priority` (active-edge count). The
  /// insert is feasibility-checked first: if the entry cannot fit even
  /// after evicting every strictly-lower-priority unpinned entry (plus the
  /// same-key entry being replaced), it is rejected with the cache
  /// untouched. Otherwise evicts coldest-first, tie-breaking equal
  /// priorities on the smaller (i,j) key so the victim sequence is
  /// deterministic. Pinned entries are never evicted; replacing a same-key
  /// entry that is pinned is rejected (another caller still holds its
  /// pointer). Returns true if cached.
  bool Put(std::uint32_t i, std::uint32_t j, partition::SubBlock block,
           std::uint64_t priority);

  /// Re-scores an existing entry (no-op when absent).
  void UpdatePriority(std::uint32_t i, std::uint32_t j, std::uint64_t priority);

  /// Removes one entry (no-op when absent or pinned).
  void Erase(std::uint32_t i, std::uint32_t j);

  /// Drops every unpinned entry (between rounds when priorities are stale).
  void Clear();

  /// Visits every cached entry as fn(i, j, block) under the buffer lock.
  /// `fn` must not call back into the buffer (single non-recursive mutex).
  template <typename Fn>
  void ForEachEntry(Fn&& fn) const {
    std::lock_guard<std::mutex> lock(mutex_);
    for (const auto& [key, entry] : entries_) {
      fn(static_cast<std::uint32_t>(key >> 32),
         static_cast<std::uint32_t>(key & 0xffffffffu), entry.block);
    }
  }

  /// Atomically re-scores every entry as priority = fn(i, j, block). One
  /// lock acquisition for the whole sweep — the FCIU round's post-first-half
  /// rescoring path (ForEachEntry + per-entry UpdatePriority would deadlock
  /// on the non-recursive mutex and interleave with concurrent Puts).
  template <typename Fn>
  void Rescore(Fn&& fn) {
    std::lock_guard<std::mutex> lock(mutex_);
    for (auto& [key, entry] : entries_) {
      entry.priority = fn(static_cast<std::uint32_t>(key >> 32),
                          static_cast<std::uint32_t>(key & 0xffffffffu),
                          entry.block);
    }
  }

  /// Exact counter snapshot, taken under one lock acquisition so the
  /// fields are mutually consistent (per-run delta reporting in the
  /// engine needs an atomic view when the buffer is shared).
  struct Counters {
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
    std::uint64_t bytes_saved = 0;
    std::uint64_t disk_bytes_saved = 0;
    std::uint64_t evictions = 0;
    std::uint64_t rejected_puts = 0;
    std::uint64_t pinned_rejected_puts = 0;
  };
  Counters counters() const;

  std::uint64_t hits() const { return counters().hits; }
  std::uint64_t misses() const { return counters().misses; }
  std::uint64_t bytes_saved() const { return counters().bytes_saved; }
  /// On-disk bytes a hit avoided re-reading (frame + weight files for
  /// compressed blocks; equals bytes_saved for raw datasets). It differs
  /// from bytes_saved exactly by the compression savings.
  std::uint64_t disk_bytes_saved() const { return counters().disk_bytes_saved; }
  std::uint64_t evictions() const { return counters().evictions; }
  std::uint64_t rejected_puts() const { return counters().rejected_puts; }
  /// Puts refused only because the same-key entry was pinned (a subset of
  /// rejected_puts) — the shared-buffer contention diagnostic.
  std::uint64_t pinned_rejected_puts() const {
    return counters().pinned_rejected_puts;
  }

  /// Publishes the current counters as `buffer.*` gauges (snapshot
  /// semantics: safe to call repeatedly, last write wins).
  void PublishMetrics(obs::MetricsRegistry& metrics) const;

 private:
  struct Entry {
    partition::SubBlock block;
    std::uint64_t stored_bytes = 0;  // capacity charge, block.SizeBytes()
    std::uint64_t priority = 0;
    std::uint32_t pins = 0;
  };
  static std::uint64_t Key(std::uint32_t i, std::uint32_t j) noexcept {
    return (static_cast<std::uint64_t>(i) << 32) | j;
  }

  void Unpin(std::uint64_t key);

  mutable std::mutex mutex_;
  std::uint64_t capacity_;
  std::uint64_t used_ = 0;
  std::uint64_t hits_ = 0;
  std::uint64_t misses_ = 0;
  std::uint64_t bytes_saved_ = 0;
  std::uint64_t disk_bytes_saved_ = 0;
  std::uint64_t evictions_ = 0;
  std::uint64_t rejected_ = 0;
  std::uint64_t pinned_rejected_ = 0;
  std::unordered_map<std::uint64_t, Entry> entries_;
};

}  // namespace graphsd::core
