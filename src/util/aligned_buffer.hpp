// Page-aligned byte buffer for direct I/O.
//
// O_DIRECT requires the user buffer, file offset, and transfer size to be
// aligned to the logical block size. `AlignedBuffer` owns memory aligned to
// `kDirectIoAlignment` (4 KiB, a safe superset of common block sizes).
//
// Buffers of kMapThresholdBytes or more are mapped directly (mmap/munmap)
// instead of taken from the malloc heap. Freeing a large heap chunk raises
// glibc's dynamic mmap threshold, after which large blocks come from
// per-thread arenas that give memory back to the system only in part; with
// pooled payloads allocated on reader threads and freed on consumers, that
// grew a `graphsd serve` daemon's resident set to twice its parent's.
#pragma once

#include <sys/mman.h>

#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <new>
#include <span>
#include <utility>

#include "util/status.hpp"

namespace graphsd {

/// Alignment that satisfies O_DIRECT on all common Linux block devices.
inline constexpr std::size_t kDirectIoAlignment = 4096;

/// Size from which an AlignedBuffer is mapped rather than heap-allocated
/// (glibc's default mmap threshold).
inline constexpr std::size_t kMapThresholdBytes = std::size_t{128} << 10;

/// Rounds `n` up to a multiple of `alignment` (a power of two).
constexpr std::size_t AlignUp(std::size_t n, std::size_t alignment) noexcept {
  return (n + alignment - 1) & ~(alignment - 1);
}

/// Rounds `n` down to a multiple of `alignment` (a power of two).
constexpr std::size_t AlignDown(std::size_t n, std::size_t alignment) noexcept {
  return n & ~(alignment - 1);
}

/// Owning, movable, page-aligned byte buffer.
class AlignedBuffer {
 public:
  AlignedBuffer() noexcept = default;

  /// Allocates `size` bytes aligned to `alignment`. Size is rounded up to a
  /// full alignment multiple so the buffer is always usable for direct I/O.
  explicit AlignedBuffer(std::size_t size,
                         std::size_t alignment = kDirectIoAlignment) {
    Allocate(size, alignment);
  }

  AlignedBuffer(AlignedBuffer&& other) noexcept
      : data_(std::exchange(other.data_, nullptr)),
        size_(std::exchange(other.size_, 0)),
        capacity_(std::exchange(other.capacity_, 0)),
        mapped_(std::exchange(other.mapped_, false)) {}

  AlignedBuffer& operator=(AlignedBuffer&& other) noexcept {
    if (this != &other) {
      Free();
      data_ = std::exchange(other.data_, nullptr);
      size_ = std::exchange(other.size_, 0);
      capacity_ = std::exchange(other.capacity_, 0);
      mapped_ = std::exchange(other.mapped_, false);
    }
    return *this;
  }

  AlignedBuffer(const AlignedBuffer&) = delete;
  AlignedBuffer& operator=(const AlignedBuffer&) = delete;

  ~AlignedBuffer() { Free(); }

  /// Ensures capacity for `size` bytes, reallocating if needed. Contents are
  /// not preserved on reallocation.
  void Reserve(std::size_t size,
               std::size_t alignment = kDirectIoAlignment) {
    if (size > capacity_) {
      Free();
      Allocate(size, alignment);
    }
    size_ = size;
  }

  std::uint8_t* data() noexcept { return data_; }
  const std::uint8_t* data() const noexcept { return data_; }

  /// Logical size (what the caller asked for, not the rounded capacity).
  std::size_t size() const noexcept { return size_; }

  /// Allocated capacity, a multiple of the alignment.
  std::size_t capacity() const noexcept { return capacity_; }

  bool empty() const noexcept { return size_ == 0; }

  std::span<std::uint8_t> span() noexcept { return {data_, size_}; }
  std::span<const std::uint8_t> span() const noexcept { return {data_, size_}; }

 private:
  void Allocate(std::size_t size, std::size_t alignment) {
    const std::size_t rounded = AlignUp(size == 0 ? alignment : size, alignment);
    // Mappings are page-aligned, which covers every alignment up to 4 KiB.
    const bool map =
        rounded >= kMapThresholdBytes && alignment <= kDirectIoAlignment;
    void* p = nullptr;
    if (map) {
      p = ::mmap(nullptr, rounded, PROT_READ | PROT_WRITE,
                 MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
      if (p == MAP_FAILED) throw std::bad_alloc();
    } else {
      p = std::aligned_alloc(alignment, rounded);
      if (p == nullptr) throw std::bad_alloc();
    }
    data_ = static_cast<std::uint8_t*>(p);
    size_ = size;
    capacity_ = rounded;
    mapped_ = map;
  }

  void Free() noexcept {
    if (mapped_) {
      ::munmap(data_, capacity_);
    } else {
      std::free(data_);
    }
    data_ = nullptr;
    size_ = 0;
    capacity_ = 0;
    mapped_ = false;
  }

  std::uint8_t* data_ = nullptr;
  std::size_t size_ = 0;
  std::size_t capacity_ = 0;
  bool mapped_ = false;
};

}  // namespace graphsd
