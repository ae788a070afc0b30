// Wall-clock timing plus a virtual clock used to charge modeled I/O time.
//
// GraphSD separates *measured* time (compute, on this machine) from
// *modeled* time (disk I/O, charged by io::IoCostModel). A `VirtualClock`
// accumulates modeled seconds; an `ExecutionReport` sums both. This is what
// lets the benchmarks reproduce the paper's HDD-era cost ratios on arbitrary
// hardware (see DESIGN.md §5.1).
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>

namespace graphsd {

/// Monotonic wall-clock stopwatch.
class WallTimer {
 public:
  WallTimer() noexcept { Restart(); }

  /// Resets the start point to now.
  void Restart() noexcept { start_ = Now(); }

  /// Seconds elapsed since construction or last Restart().
  double Seconds() const noexcept {
    return std::chrono::duration<double>(Now() - start_).count();
  }

  /// Milliseconds elapsed.
  double Millis() const noexcept { return Seconds() * 1e3; }

 private:
  using Clock = std::chrono::steady_clock;
  static Clock::time_point Now() noexcept { return Clock::now(); }
  Clock::time_point start_;
};

/// Thread-safe accumulator of modeled (virtual) seconds.
///
/// Stored as integer nanoseconds so concurrent `Add` calls are exact and
/// associative regardless of interleaving.
class VirtualClock {
 public:
  /// Adds `seconds` of modeled time. Negative additions are a bug.
  void Add(double seconds) noexcept;

  /// Total accumulated modeled seconds.
  double Seconds() const noexcept {
    return static_cast<double>(nanos_.load(std::memory_order_relaxed)) * 1e-9;
  }

  /// Resets to zero.
  void Reset() noexcept { nanos_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<std::int64_t> nanos_{0};
};

/// RAII accumulator: adds the elapsed wall time of its scope to `*sink`.
class ScopedWallAccumulator {
 public:
  explicit ScopedWallAccumulator(double* sink) noexcept : sink_(sink) {}
  ~ScopedWallAccumulator() { *sink_ += timer_.Seconds(); }

  ScopedWallAccumulator(const ScopedWallAccumulator&) = delete;
  ScopedWallAccumulator& operator=(const ScopedWallAccumulator&) = delete;

 private:
  double* sink_;
  WallTimer timer_;
};

}  // namespace graphsd
