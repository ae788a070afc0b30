// Bounded pool of direct-I/O buffers, and the typed arrays built on them.
//
// Sub-block payloads (edges, weights, compressed frames) and the device's
// bounce scratch are leased from a BufferPool instead of being allocated per
// fetch. Every buffer is 4 KiB-aligned and padded to a 4 KiB multiple, so an
// O_DIRECT read can land in it straight from the kernel, the file's EOF-short
// final block included (DESIGN.md §15). A lease goes back to the pool when
// its owner is destroyed: a consumed block, an evicted buffer entry, a frame
// after decode. The pool keeps returned buffers for reuse up to
// kMaxFreeBytes; past that, returned buffers are freed.
//
// Thread safety: Acquire and the return of a lease may run on any thread.
// One mutex guards the free list and both byte counters. A lease keeps the
// pool's state alive, so leases may outlive the BufferPool handle they came
// from.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>
#include <type_traits>
#include <utility>

#include "util/aligned_buffer.hpp"

namespace graphsd {

class BufferPool {
 public:
  /// Returned buffers kept for reuse: room for the semi working set — the
  /// fetch window, the held FCIU diagonal and the skip indexes — so steady
  /// rounds reuse buffers instead of mapping fresh ones (DESIGN.md §15).
  static constexpr std::size_t kMaxFreeBytes = std::size_t{32} << 20;

  class Lease;

  BufferPool();

  /// A buffer of at least `bytes` bytes, rounded up to a 4 KiB multiple
  /// (one 4 KiB block for 0). Contents are unspecified: a reused buffer
  /// still holds its last owner's bytes.
  Lease Acquire(std::size_t bytes);

  /// Capacity of every buffer the pool allocated and has not freed:
  /// leased plus free.
  std::uint64_t resident_bytes() const;
  /// Capacity of the buffers waiting for reuse.
  std::uint64_t free_bytes() const;
  /// Acquire calls no free buffer served: each mapped a fresh one.
  std::uint64_t misses() const;
  /// Returned buffers freed because keeping them would pass kMaxFreeBytes.
  std::uint64_t dropped() const;

 private:
  struct State;
  std::shared_ptr<State> state_;
};

/// Move-only owner of one pooled buffer; returns it to the pool on
/// destruction or reassignment. A default lease owns nothing.
class BufferPool::Lease {
 public:
  Lease() = default;
  Lease(Lease&& other) noexcept = default;
  Lease& operator=(Lease&& other) noexcept {
    if (this != &other) {
      Release();
      state_ = std::move(other.state_);
      buffer_ = std::move(other.buffer_);
    }
    return *this;
  }
  Lease(const Lease&) = delete;
  Lease& operator=(const Lease&) = delete;
  ~Lease() { Release(); }

  std::uint8_t* data() noexcept { return buffer_.data(); }
  const std::uint8_t* data() const noexcept { return buffer_.data(); }
  /// Usable bytes: a multiple of kDirectIoAlignment (0 for an empty lease).
  std::size_t capacity() const noexcept { return buffer_.capacity(); }

  /// Returns the buffer to its pool now; the lease is empty afterwards.
  void Release() noexcept;

 private:
  friend class BufferPool;
  Lease(std::shared_ptr<State> state, AlignedBuffer buffer) noexcept
      : state_(std::move(state)), buffer_(std::move(buffer)) {}

  std::shared_ptr<State> state_;
  AlignedBuffer buffer_;
};

/// A fixed-length array of trivially copyable `T` in a pooled buffer: the
/// storage of sub-block payloads. Elements start uninitialized (decode and
/// direct reads overwrite every one). Move-only, like its lease: a payload
/// is never copied, so an accidental copy of a sub-block fails to compile.
template <typename T>
class PooledArray {
  static_assert(std::is_trivially_copyable_v<T>);

 public:
  using value_type = T;
  using iterator = T*;
  using const_iterator = const T*;

  PooledArray() = default;
  PooledArray(BufferPool& pool, std::size_t count)
      : lease_(count > 0 ? pool.Acquire(count * sizeof(T))
                         : BufferPool::Lease()),
        size_(count) {}

  PooledArray(PooledArray&& other) noexcept
      : lease_(std::move(other.lease_)), size_(std::exchange(other.size_, 0)) {}
  PooledArray& operator=(PooledArray&& other) noexcept {
    lease_ = std::move(other.lease_);
    size_ = std::exchange(other.size_, 0);
    return *this;
  }
  PooledArray(const PooledArray&) = delete;
  PooledArray& operator=(const PooledArray&) = delete;

  T* data() noexcept { return reinterpret_cast<T*>(lease_.data()); }
  const T* data() const noexcept {
    return reinterpret_cast<const T*>(lease_.data());
  }
  std::size_t size() const noexcept { return size_; }
  bool empty() const noexcept { return size_ == 0; }
  std::size_t size_bytes() const noexcept { return size_ * sizeof(T); }

  T& operator[](std::size_t k) noexcept { return data()[k]; }
  const T& operator[](std::size_t k) const noexcept { return data()[k]; }
  const T& front() const noexcept { return data()[0]; }
  const T& back() const noexcept { return data()[size_ - 1]; }
  T* begin() noexcept { return data(); }
  T* end() noexcept { return data() + size_; }
  const T* begin() const noexcept { return data(); }
  const T* end() const noexcept { return data() + size_; }

  operator std::span<const T>() const noexcept { return {data(), size_}; }

  /// The elements' bytes (what a checksum covers).
  std::span<const std::uint8_t> bytes() const noexcept {
    return {lease_.data(), size_bytes()};
  }
  /// The whole buffer, padding included: a 4 KiB-aligned span of a 4 KiB
  /// multiple, the target of a direct read of size_bytes() bytes.
  std::span<std::uint8_t> padded_bytes() noexcept {
    return {lease_.data(), lease_.capacity()};
  }

  /// Returns the buffer to its pool; the array is empty afterwards.
  void clear() noexcept {
    lease_.Release();
    size_ = 0;
  }

  friend bool operator==(const PooledArray& a, const PooledArray& b) {
    return std::equal(a.begin(), a.end(), b.begin(), b.end());
  }

 private:
  BufferPool::Lease lease_;
  std::size_t size_ = 0;
};

}  // namespace graphsd
