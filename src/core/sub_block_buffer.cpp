#include "core/sub_block_buffer.hpp"

#include "obs/metrics.hpp"

namespace graphsd::core {

// unordered_map never invalidates references to mapped values on insert or
// rehash, so a Pin's block pointer stays valid for exactly as long as
// its entry stays in the map — which the pin count guarantees.

std::uint64_t SubBlockBuffer::size_bytes() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return used_;
}

std::size_t SubBlockBuffer::entry_count() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return entries_.size();
}

std::size_t SubBlockBuffer::pinned_count() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::size_t pinned = 0;
  for (const auto& [key, entry] : entries_) {
    if (entry.pins > 0) ++pinned;
  }
  return pinned;
}

std::uint64_t SubBlockBuffer::AuditUsedBytes() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::uint64_t total = 0;
  for (const auto& [key, entry] : entries_) total += entry.stored_bytes;
  return total;
}

bool SubBlockBuffer::Contains(std::uint32_t i, std::uint32_t j) const {
  std::lock_guard<std::mutex> lock(mutex_);
  return entries_.find(Key(i, j)) != entries_.end();
}

SubBlockBuffer::Pin SubBlockBuffer::Get(std::uint32_t i, std::uint32_t j,
                                        bool require_weights) {
  if (!enabled()) return Pin();
  std::lock_guard<std::mutex> lock(mutex_);
  const auto it = entries_.find(Key(i, j));
  if (it == entries_.end()) {
    ++misses_;
    return Pin();
  }
  Entry& entry = it->second;
  // Edge-bearing entries cached without their weights miss a weighted
  // consumer.
  if (require_weights && !entry.block.edges.empty() &&
      entry.block.weights.empty()) {
    ++misses_;
    return Pin();
  }
  ++hits_;
  bytes_saved_ += entry.stored_bytes;
  disk_bytes_saved_ += entry.block.disk_bytes;
  ++entry.pins;
  return Pin(this, it->first, &entry.block);
}

void SubBlockBuffer::Unpin(std::uint64_t key) {
  std::lock_guard<std::mutex> lock(mutex_);
  const auto it = entries_.find(key);
  if (it != entries_.end() && it->second.pins > 0) --it->second.pins;
}

bool SubBlockBuffer::Put(std::uint32_t i, std::uint32_t j,
                         partition::SubBlock block, std::uint64_t priority) {
  if (!enabled()) return false;
  const std::uint64_t key = Key(i, j);
  const std::uint64_t bytes = block.SizeBytes();
  std::lock_guard<std::mutex> lock(mutex_);
  if (bytes > capacity_) {
    // An entry that can never fit is rejected before any eviction: flushing
    // the cache for an insert that must fail would only destroy hits.
    ++rejected_;
    return false;
  }
  // A pinned same-key entry cannot be replaced — another caller still reads
  // through its pointers. Reject; the caller keeps its locally-loaded copy.
  if (const auto it = entries_.find(key);
      it != entries_.end() && it->second.pins > 0) {
    ++rejected_;
    ++pinned_rejected_;
    return false;
  }
  // Feasibility first: only the same-key entry (it is being replaced) and
  // strictly-lower-priority *unpinned* entries may be evicted for this
  // insert. If that budget cannot make room, reject without touching the
  // cache — the old code evicted cold entries one by one and could flush
  // several of them before discovering the insert was doomed.
  std::uint64_t evictable = 0;
  for (const auto& [entry_key, resident] : entries_) {
    if (entry_key == key ||
        (resident.pins == 0 && resident.priority < priority)) {
      evictable += resident.stored_bytes;
    }
  }
  if (used_ - evictable + bytes > capacity_) {
    ++rejected_;
    return false;
  }
  // Replacing an existing entry: release its bytes first (not an eviction).
  if (const auto it = entries_.find(key); it != entries_.end()) {
    used_ -= it->second.stored_bytes;
    entries_.erase(it);
  }
  // Evict coldest-first until the entry fits. Equal priorities tie-break on
  // the smaller key so the victim sequence is independent of hash-map
  // iteration order — runs must be reproducible. Pinned entries are never
  // victims.
  while (used_ + bytes > capacity_) {
    auto victim = entries_.end();
    for (auto it = entries_.begin(); it != entries_.end(); ++it) {
      if (it->second.pins > 0) continue;
      if (victim == entries_.end() ||
          it->second.priority < victim->second.priority ||
          (it->second.priority == victim->second.priority &&
           it->first < victim->first)) {
        victim = it;
      }
    }
    used_ -= victim->second.stored_bytes;
    entries_.erase(victim);
    ++evictions_;
  }
  used_ += bytes;
  entries_.emplace(key, Entry{std::move(block), bytes, priority});
  return true;
}

void SubBlockBuffer::UpdatePriority(std::uint32_t i, std::uint32_t j,
                                    std::uint64_t priority) {
  std::lock_guard<std::mutex> lock(mutex_);
  if (const auto it = entries_.find(Key(i, j)); it != entries_.end()) {
    it->second.priority = priority;
  }
}

void SubBlockBuffer::Erase(std::uint32_t i, std::uint32_t j) {
  std::lock_guard<std::mutex> lock(mutex_);
  if (const auto it = entries_.find(Key(i, j));
      it != entries_.end() && it->second.pins == 0) {
    used_ -= it->second.stored_bytes;
    entries_.erase(it);
  }
}

void SubBlockBuffer::Clear() {
  std::lock_guard<std::mutex> lock(mutex_);
  for (auto it = entries_.begin(); it != entries_.end();) {
    if (it->second.pins == 0) {
      used_ -= it->second.stored_bytes;
      it = entries_.erase(it);
    } else {
      ++it;
    }
  }
}

SubBlockBuffer::Counters SubBlockBuffer::counters() const {
  std::lock_guard<std::mutex> lock(mutex_);
  Counters c;
  c.hits = hits_;
  c.misses = misses_;
  c.bytes_saved = bytes_saved_;
  c.disk_bytes_saved = disk_bytes_saved_;
  c.evictions = evictions_;
  c.rejected_puts = rejected_;
  c.pinned_rejected_puts = pinned_rejected_;
  return c;
}

void SubBlockBuffer::PublishMetrics(obs::MetricsRegistry& metrics) const {
  const Counters c = counters();
  metrics.GetGauge("buffer.capacity_bytes").Set(static_cast<double>(capacity_));
  metrics.GetGauge("buffer.used_bytes").Set(static_cast<double>(size_bytes()));
  metrics.GetGauge("buffer.hits").Set(static_cast<double>(c.hits));
  metrics.GetGauge("buffer.misses").Set(static_cast<double>(c.misses));
  metrics.GetGauge("buffer.bytes_saved")
      .Set(static_cast<double>(c.bytes_saved));
  metrics.GetGauge("buffer.disk_bytes_saved")
      .Set(static_cast<double>(c.disk_bytes_saved));
  metrics.GetGauge("buffer.evictions").Set(static_cast<double>(c.evictions));
  metrics.GetGauge("buffer.rejected_puts")
      .Set(static_cast<double>(c.rejected_puts));
  metrics.GetGauge("buffer.pinned_rejected_puts")
      .Set(static_cast<double>(c.pinned_rejected_puts));
}

}  // namespace graphsd::core
