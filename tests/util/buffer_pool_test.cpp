#include "util/buffer_pool.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <thread>
#include <utility>
#include <vector>

namespace graphsd {
namespace {

TEST(BufferPool, LeasesAreAlignedAndPadded) {
  BufferPool pool;
  for (const std::size_t bytes : {std::size_t{0}, std::size_t{1},
                                  std::size_t{4096}, std::size_t{10000}}) {
    SCOPED_TRACE(bytes);
    BufferPool::Lease lease = pool.Acquire(bytes);
    EXPECT_EQ(reinterpret_cast<std::uintptr_t>(lease.data()) %
                  kDirectIoAlignment,
              0u);
    EXPECT_EQ(lease.capacity() % kDirectIoAlignment, 0u);
    EXPECT_GE(lease.capacity(), std::max<std::size_t>(bytes, 1));
  }
}

TEST(BufferPool, ReleasedBufferIsReused) {
  BufferPool pool;
  const std::uint8_t* first = nullptr;
  {
    BufferPool::Lease lease = pool.Acquire(10000);
    first = lease.data();
    EXPECT_EQ(pool.resident_bytes(), lease.capacity());
    EXPECT_EQ(pool.free_bytes(), 0u);
  }
  EXPECT_EQ(pool.free_bytes(), pool.resident_bytes());
  BufferPool::Lease again = pool.Acquire(9000);
  EXPECT_EQ(again.data(), first);
  EXPECT_EQ(pool.free_bytes(), 0u);
}

TEST(BufferPool, SmallRequestDoesNotTakeAFarLargerBuffer) {
  BufferPool pool;
  pool.Acquire(64 * kDirectIoAlignment).Release();
  const std::uint64_t resident = pool.resident_bytes();
  BufferPool::Lease small = pool.Acquire(1);
  EXPECT_EQ(small.capacity(), kDirectIoAlignment);
  EXPECT_EQ(pool.free_bytes(), resident);
  EXPECT_EQ(pool.resident_bytes(), resident + kDirectIoAlignment);
}

TEST(BufferPool, FreeBytesStayWithinTheBound) {
  constexpr std::size_t kLeaseBytes = std::size_t{4} << 20;
  static_assert(5 * kLeaseBytes > BufferPool::kMaxFreeBytes);
  BufferPool pool;
  std::vector<BufferPool::Lease> leases;
  for (int i = 0; i < 5; ++i) leases.push_back(pool.Acquire(kLeaseBytes));
  EXPECT_EQ(pool.resident_bytes(), 5 * kLeaseBytes);
  leases.clear();
  // As many kept for reuse as fit under the bound; the rest freed on return.
  const std::size_t kept =
      BufferPool::kMaxFreeBytes / kLeaseBytes * kLeaseBytes;
  EXPECT_EQ(pool.free_bytes(), kept);
  EXPECT_LE(pool.free_bytes(), BufferPool::kMaxFreeBytes);
  EXPECT_EQ(pool.resident_bytes(), kept);
}

TEST(BufferPool, LeaseOutlivesThePoolHandle) {
  BufferPool::Lease lease;
  {
    BufferPool pool;
    lease = pool.Acquire(100);
  }
  lease.data()[99] = 7;
  EXPECT_EQ(lease.data()[99], 7);
}

TEST(PooledArray, CopyLeasesItsOwnBufferFromTheSamePool) {
  BufferPool pool;
  PooledArray<std::uint32_t> a(pool, 1000);
  for (std::uint32_t k = 0; k < a.size(); ++k) a[k] = k * 3;
  const PooledArray<std::uint32_t> b = a;
  EXPECT_EQ(a, b);
  EXPECT_NE(a.data(), b.data());
  EXPECT_EQ(pool.resident_bytes(), 2 * AlignUp(4000, kDirectIoAlignment));
  a[5] = 0;
  EXPECT_FALSE(a == b);
}

TEST(PooledArray, EmptyArrayHoldsNoLeaseAndMoveEmptiesTheSource) {
  BufferPool pool;
  PooledArray<std::uint64_t> empty(pool, 0);
  EXPECT_TRUE(empty.empty());
  EXPECT_EQ(pool.resident_bytes(), 0u);
  PooledArray<std::uint64_t> a(pool, 3);
  PooledArray<std::uint64_t> b = std::move(a);
  EXPECT_TRUE(a.empty());  // NOLINT(bugprone-use-after-move)
  EXPECT_EQ(b.size(), 3u);
  EXPECT_EQ(b.padded_bytes().size(), kDirectIoAlignment);
  b.clear();
  EXPECT_EQ(pool.free_bytes(), pool.resident_bytes());
}

TEST(BufferPool, ConcurrentAcquireAndReleaseKeepTheCountersExact) {
  BufferPool pool;
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&pool, t] {
      std::vector<BufferPool::Lease> held;
      for (int i = 0; i < 200; ++i) {
        held.push_back(pool.Acquire(static_cast<std::size_t>(
            (i * 7 + t) % 5 * kDirectIoAlignment + 1)));
        held.back().data()[0] = static_cast<std::uint8_t>(i);
        if (held.size() > 3) held.erase(held.begin());
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  EXPECT_EQ(pool.free_bytes(), pool.resident_bytes());
  EXPECT_LE(pool.free_bytes(), BufferPool::kMaxFreeBytes);
}

}  // namespace
}  // namespace graphsd
