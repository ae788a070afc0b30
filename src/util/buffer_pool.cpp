#include "util/buffer_pool.hpp"

#include <map>
#include <mutex>
#include <vector>

namespace graphsd {

struct BufferPool::State {
  mutable std::mutex mutex;
  // Free buffers by capacity, for best-fit reuse.
  std::multimap<std::size_t, AlignedBuffer> free;
  std::uint64_t free_bytes = 0;
  std::uint64_t resident_bytes = 0;
};

namespace {

// A free buffer is reused for a request only when it exceeds the request
// by at most 1/kReuseSlack: a block must not pin a larger buffer (and its
// resident pages) for as long as it lives, which in a sub-block buffer can
// be the whole run.
constexpr std::size_t kReuseSlack = 8;

}  // namespace

BufferPool::BufferPool() : state_(std::make_shared<State>()) {}

BufferPool::Lease BufferPool::Acquire(std::size_t bytes) {
  return AcquireFrom(state_, bytes);
}

BufferPool::Lease BufferPool::AcquireFrom(const std::shared_ptr<State>& state,
                                          std::size_t bytes) {
  const std::size_t need = AlignUp(bytes == 0 ? 1 : bytes, kDirectIoAlignment);
  {
    std::lock_guard<std::mutex> lock(state->mutex);
    const auto it = state->free.lower_bound(need);
    if (it != state->free.end() && it->first <= need + need / kReuseSlack) {
      AlignedBuffer buffer = std::move(it->second);
      state->free.erase(it);
      state->free_bytes -= buffer.capacity();
      return Lease(state, std::move(buffer));
    }
  }
  // Allocated outside the lock: a fresh mapping can take a while.
  AlignedBuffer fresh(need);
  std::lock_guard<std::mutex> lock(state->mutex);
  state->resident_bytes += fresh.capacity();
  return Lease(state, std::move(fresh));
}

std::uint64_t BufferPool::resident_bytes() const {
  std::lock_guard<std::mutex> lock(state_->mutex);
  return state_->resident_bytes;
}

std::uint64_t BufferPool::free_bytes() const {
  std::lock_guard<std::mutex> lock(state_->mutex);
  return state_->free_bytes;
}

BufferPool::Lease BufferPool::Lease::Copy(std::size_t bytes) const {
  if (state_ == nullptr) return Lease();
  Lease copy = AcquireFrom(state_, bytes);
  std::copy_n(buffer_.data(), bytes, copy.data());
  return copy;
}

void BufferPool::Lease::Release() noexcept {
  if (state_ == nullptr) return;
  // Declared before the guard, so a buffer over the bound is freed after
  // the lock drops.
  AlignedBuffer returned = std::move(buffer_);
  std::shared_ptr<State> state = std::move(state_);
  const std::size_t capacity = returned.capacity();
  std::lock_guard<std::mutex> lock(state->mutex);
  if (state->free_bytes + capacity > kMaxFreeBytes) {
    state->resident_bytes -= capacity;
    return;
  }
  state->free_bytes += capacity;
  state->free.emplace(capacity, std::move(returned));
}

}  // namespace graphsd
