// Fixed-size concurrent bitset used for vertex frontiers and active masks.
//
// Bits are stored in 64-bit words; `Set`/`TestAndSet` use relaxed atomic RMW
// so multiple worker threads can mark vertices active concurrently. Counting
// and iteration are not linearizable with concurrent writers — callers
// sequence them at BSP iteration boundaries, which is exactly how frontiers
// are used.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace graphsd {

class ConcurrentBitset {
 public:
  ConcurrentBitset() = default;

  /// Creates a bitset of `size` bits, all clear.
  explicit ConcurrentBitset(std::size_t size) { Resize(size); }

  /// Resizes to `size` bits and clears everything.
  void Resize(std::size_t size);

  /// Number of bits.
  std::size_t size() const noexcept { return size_; }

  /// Sets bit `i` (relaxed atomic OR). Thread safe.
  void Set(std::size_t i) noexcept;

  /// Clears bit `i`. Thread safe.
  void Clear(std::size_t i) noexcept;

  /// Atomically sets bit `i`; returns true iff the bit was previously clear.
  /// The workhorse of frontier deduplication. Inline, like Test: the apply
  /// loop calls both once per edge.
  bool TestAndSet(std::size_t i) noexcept {
    const std::uint64_t mask = 1ULL << (i % 64);
    const std::uint64_t old =
        words_[i / 64].fetch_or(mask, std::memory_order_relaxed);
    return (old & mask) == 0;
  }

  /// Reads bit `i`.
  bool Test(std::size_t i) const noexcept {
    return (words_[i / 64].load(std::memory_order_relaxed) >> (i % 64)) & 1ULL;
  }

  /// The first set bit in [begin, end), or `end` when there is none. `end`
  /// may exceed size(); bits at or past size() are never set.
  std::size_t FindNextSet(std::size_t begin, std::size_t end) const noexcept {
    const std::size_t limit = end < size_ ? end : size_;
    if (begin >= limit) return end;
    std::size_t w = begin / 64;
    const std::size_t last_word = (limit - 1) / 64;
    std::uint64_t word =
        words_[w].load(std::memory_order_relaxed) & (~0ULL << (begin % 64));
    while (word == 0) {
      if (++w > last_word) return end;
      word = words_[w].load(std::memory_order_relaxed);
    }
    const std::size_t index =
        w * 64 + static_cast<std::size_t>(__builtin_ctzll(word));
    return index < limit ? index : end;
  }

  /// Clears all bits. Not thread safe with concurrent writers.
  void ClearAll() noexcept;

  /// Sets all bits (the "everything active" frontier). Not thread safe.
  void SetAll() noexcept;

  /// Population count. Not linearizable with concurrent writers.
  std::size_t Count() const noexcept;

  /// True iff no bit is set.
  bool None() const noexcept { return Count() == 0; }

  /// Calls `fn(i)` for every set bit in ascending order.
  template <typename Fn>
  void ForEachSet(Fn&& fn) const {
    for (std::size_t w = 0; w < words_.size(); ++w) {
      std::uint64_t word = words_[w].load(std::memory_order_relaxed);
      while (word != 0) {
        const int bit = __builtin_ctzll(word);
        const std::size_t index = w * 64 + static_cast<std::size_t>(bit);
        if (index >= size_) return;
        fn(index);
        word &= word - 1;
      }
    }
  }

  /// Calls `fn(i)` for every set bit in [begin, end).
  template <typename Fn>
  void ForEachSetInRange(std::size_t begin, std::size_t end, Fn&& fn) const {
    if (begin >= end || begin >= size_) return;
    if (end > size_) end = size_;
    const std::size_t first_word = begin / 64;
    const std::size_t last_word = (end - 1) / 64;
    for (std::size_t w = first_word; w <= last_word; ++w) {
      std::uint64_t word = words_[w].load(std::memory_order_relaxed);
      if (w == first_word) word &= ~0ULL << (begin % 64);
      if (w == last_word && (end % 64) != 0) word &= (1ULL << (end % 64)) - 1;
      while (word != 0) {
        const int bit = __builtin_ctzll(word);
        fn(w * 64 + static_cast<std::size_t>(bit));
        word &= word - 1;
      }
    }
  }

  /// Count of set bits in [begin, end).
  std::size_t CountInRange(std::size_t begin, std::size_t end) const noexcept;

  /// Copies another bitset's contents (sizes must match).
  void CopyFrom(const ConcurrentBitset& other) noexcept;

  /// Swaps contents with another bitset.
  void Swap(ConcurrentBitset& other) noexcept;

 private:
  std::size_t size_ = 0;
  std::vector<std::atomic<std::uint64_t>> words_;
};

}  // namespace graphsd
