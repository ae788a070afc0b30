// I/O accounting: every byte an engine moves is recorded here, split by
// direction (read/write) and access pattern (sequential/random).
//
// The paper's Figure 7 ("I/O traffic comparison") is produced directly from
// these counters; the cost model (cost_model.hpp) converts them to modeled
// time for the execution-time figures.
#pragma once

#include <atomic>
#include <cstdint>
#include <string>

namespace graphsd::io {

/// Classification a device assigns to each request.
enum class AccessPattern { kSequential, kRandom };

/// Snapshot of I/O counters (plain struct, copyable).
struct IoStatsSnapshot {
  std::uint64_t seq_read_bytes = 0;
  std::uint64_t seq_write_bytes = 0;
  std::uint64_t rand_read_bytes = 0;
  std::uint64_t rand_write_bytes = 0;
  std::uint64_t seq_read_ops = 0;
  std::uint64_t seq_write_ops = 0;
  std::uint64_t rand_read_ops = 0;
  std::uint64_t rand_write_ops = 0;
  // Resilience counters (see DESIGN.md "Failure model & recovery").
  std::uint64_t retries = 0;            // transient errors absorbed by retry
  std::uint64_t checksum_failures = 0;  // CRC mismatches surfaced on load
  std::uint64_t eintr_absorbed = 0;     // signal interruptions retried free
  // Read-path mechanics (see DESIGN.md §15): scatter requests submitted as
  // one vectored batch, and direct-I/O reads that detoured through an
  // aligned bounce buffer because the caller's offset/size/pointer was not
  // block-aligned.
  std::uint64_t vectored_reads = 0;
  std::uint64_t bounce_reads = 0;

  std::uint64_t TotalReadBytes() const noexcept {
    return seq_read_bytes + rand_read_bytes;
  }
  std::uint64_t TotalWriteBytes() const noexcept {
    return seq_write_bytes + rand_write_bytes;
  }
  std::uint64_t TotalBytes() const noexcept {
    return TotalReadBytes() + TotalWriteBytes();
  }
  std::uint64_t TotalOps() const noexcept {
    return seq_read_ops + seq_write_ops + rand_read_ops + rand_write_ops;
  }

  /// Component-wise difference (this - other); callers must pass an earlier
  /// snapshot of the same counter set.
  IoStatsSnapshot operator-(const IoStatsSnapshot& other) const noexcept;
  IoStatsSnapshot& operator+=(const IoStatsSnapshot& other) noexcept;
  bool operator==(const IoStatsSnapshot&) const = default;

  /// Calls `f(s.counter...)` once per counter, with the same counter of
  /// every argument: the one list of I/O counters (IoStats' atomic set
  /// shares the names).
  template <typename F, typename... Snapshots>
  static void ForEachCounter(F&& f, Snapshots&... s) {
    f(s.seq_read_bytes...);
    f(s.seq_write_bytes...);
    f(s.rand_read_bytes...);
    f(s.rand_write_bytes...);
    f(s.seq_read_ops...);
    f(s.seq_write_ops...);
    f(s.rand_read_ops...);
    f(s.rand_write_ops...);
    f(s.retries...);
    f(s.checksum_failures...);
    f(s.eintr_absorbed...);
    f(s.vectored_reads...);
    f(s.bounce_reads...);
  }

  /// One-line summary for logs.
  std::string ToString() const;
};

/// Thread-safe I/O counter set.
class IoStats {
 public:
  /// Records one read of `bytes` with the given pattern.
  void RecordRead(AccessPattern pattern, std::uint64_t bytes) noexcept;

  /// Records one write of `bytes` with the given pattern.
  void RecordWrite(AccessPattern pattern, std::uint64_t bytes) noexcept;

  /// Records one retry of a transiently-failed request.
  void RecordRetry() noexcept {
    counters_.retries.fetch_add(1, std::memory_order_relaxed);
  }

  /// Records one detected checksum mismatch.
  void RecordChecksumFailure() noexcept {
    counters_.checksum_failures.fetch_add(1, std::memory_order_relaxed);
  }

  /// Records one EINTR absorbed without consuming a retry-budget slot.
  void RecordEintrAbsorbed() noexcept {
    counters_.eintr_absorbed.fetch_add(1, std::memory_order_relaxed);
  }

  /// Records one scatter request submitted as a vectored batch.
  void RecordVectoredRead() noexcept {
    counters_.vectored_reads.fetch_add(1, std::memory_order_relaxed);
  }

  /// Records one direct-I/O read served through the aligned bounce buffer.
  void RecordBounceRead() noexcept {
    counters_.bounce_reads.fetch_add(1, std::memory_order_relaxed);
  }

  /// Copies the current counters.
  IoStatsSnapshot Snapshot() const noexcept;

  /// Zeroes all counters.
  void Reset() noexcept;

 private:
  using Counter = std::atomic<std::uint64_t>;
  // One atomic per IoStatsSnapshot counter, under the same names, so
  // IoStatsSnapshot::ForEachCounter visits both.
  struct Counters {
    Counter seq_read_bytes{0};
    Counter seq_write_bytes{0};
    Counter rand_read_bytes{0};
    Counter rand_write_bytes{0};
    Counter seq_read_ops{0};
    Counter seq_write_ops{0};
    Counter rand_read_ops{0};
    Counter rand_write_ops{0};
    Counter retries{0};
    Counter checksum_failures{0};
    Counter eintr_absorbed{0};
    Counter vectored_reads{0};
    Counter bounce_reads{0};
  };
  Counters counters_;
};

}  // namespace graphsd::io
