#include "util/bitset.hpp"

#include "util/status.hpp"

namespace graphsd {

void ConcurrentBitset::Resize(std::size_t size) {
  size_ = size;
  const std::size_t words = (size + 63) / 64;
  // std::atomic is not movable; rebuild the vector.
  words_ = std::vector<std::atomic<std::uint64_t>>(words);
  for (auto& w : words_) w.store(0, std::memory_order_relaxed);
}

void ConcurrentBitset::Set(std::size_t i) noexcept {
  words_[i / 64].fetch_or(1ULL << (i % 64), std::memory_order_relaxed);
}

void ConcurrentBitset::Clear(std::size_t i) noexcept {
  words_[i / 64].fetch_and(~(1ULL << (i % 64)), std::memory_order_relaxed);
}

void ConcurrentBitset::ClearAll() noexcept {
  for (auto& w : words_) w.store(0, std::memory_order_relaxed);
}

void ConcurrentBitset::SetAll() noexcept {
  for (auto& w : words_) w.store(~0ULL, std::memory_order_relaxed);
  // Mask out the bits beyond size_ in the final word so Count() is exact.
  if (size_ % 64 != 0 && !words_.empty()) {
    words_.back().store((1ULL << (size_ % 64)) - 1, std::memory_order_relaxed);
  }
}

std::size_t ConcurrentBitset::Count() const noexcept {
  std::size_t total = 0;
  for (const auto& w : words_) {
    total += static_cast<std::size_t>(
        __builtin_popcountll(w.load(std::memory_order_relaxed)));
  }
  return total;
}

std::size_t ConcurrentBitset::CountInRange(std::size_t begin,
                                           std::size_t end) const noexcept {
  std::size_t total = 0;
  ForEachSetInRange(begin, end, [&](std::size_t) { ++total; });
  return total;
}

void ConcurrentBitset::CopyFrom(const ConcurrentBitset& other) noexcept {
  GRAPHSD_CHECK(size_ == other.size_);
  for (std::size_t w = 0; w < words_.size(); ++w) {
    words_[w].store(other.words_[w].load(std::memory_order_relaxed),
                    std::memory_order_relaxed);
  }
}

void ConcurrentBitset::Swap(ConcurrentBitset& other) noexcept {
  std::swap(size_, other.size_);
  words_.swap(other.words_);
}

}  // namespace graphsd
