// Cooperative cancellation primitive.
//
// A `CancellationToken` is a tiny, lock-free tripwire shared between the
// party requesting a stop (signal handler, deadline watchdog, query
// service) and the code doing the work (engine round loop, executor pass
// loops, the prefetch loader).  Work never stops mid-write: each consumer
// polls `cancelled()` at its own safe points and unwinds with
// `StatusCode::kCancelled`, so the run always lands on a committed
// iteration boundary.
//
// The token lives in util — below the io layer — because every
// `PrefetchStream` polls it to drain its queued I/O promptly.  Every layer
// spells it `graphsd::CancellationToken`; the engine-facing signal
// installation lives in core/cancellation.hpp.
//
// Every mutation is a relaxed/release atomic store on purpose: `Cancel`
// must be callable from a POSIX signal handler, so it may not allocate,
// lock, or touch errno.  Reasons are therefore `const char*` pointers to
// string literals (or other storage outliving the token), not owned
// strings.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>

#include "util/status.hpp"

namespace graphsd {

class CancellationToken {
 public:
  CancellationToken() = default;
  CancellationToken(const CancellationToken&) = delete;
  CancellationToken& operator=(const CancellationToken&) = delete;

  /// Trips the token. Async-signal-safe: `reason` must point to storage
  /// that outlives the token (a string literal in practice). The first
  /// reason wins; later calls keep the original.
  void Cancel(const char* reason = "cancelled") noexcept {
    const char* expected = nullptr;
    reason_.compare_exchange_strong(expected, reason,
                                    std::memory_order_release,
                                    std::memory_order_relaxed);
    cancelled_.store(true, std::memory_order_release);
  }

  /// Arms a deadline `seconds` from now; the token reads as cancelled once
  /// the deadline passes. A non-positive value disarms.
  void SetDeadline(double seconds) noexcept {
    if (seconds <= 0) {
      deadline_ns_.store(0, std::memory_order_release);
      return;
    }
    const auto now = std::chrono::steady_clock::now().time_since_epoch();
    const std::int64_t now_ns =
        std::chrono::duration_cast<std::chrono::nanoseconds>(now).count();
    deadline_ns_.store(
        now_ns + static_cast<std::int64_t>(seconds * 1e9),
        std::memory_order_release);
  }

  /// Chains this token under `parent`: this token reads as cancelled when
  /// the parent is. Not thread-safe against concurrent polls; set up
  /// before the run starts.
  void set_parent(const CancellationToken* parent) noexcept {
    parent_ = parent;
  }

  bool cancelled() const noexcept {
    if (cancelled_.load(std::memory_order_acquire)) return true;
    const std::int64_t deadline = deadline_ns_.load(std::memory_order_acquire);
    if (deadline != 0) {
      const auto now = std::chrono::steady_clock::now().time_since_epoch();
      if (std::chrono::duration_cast<std::chrono::nanoseconds>(now).count() >=
          deadline) {
        return true;
      }
    }
    return parent_ != nullptr && parent_->cancelled();
  }

  /// Why the token tripped ("cancelled", "SIGINT", "deadline exceeded", …).
  const char* reason() const noexcept {
    if (const char* r = reason_.load(std::memory_order_acquire); r != nullptr) {
      return r;
    }
    const std::int64_t deadline = deadline_ns_.load(std::memory_order_acquire);
    if (deadline != 0) {
      const auto now = std::chrono::steady_clock::now().time_since_epoch();
      if (std::chrono::duration_cast<std::chrono::nanoseconds>(now).count() >=
          deadline) {
        return "deadline exceeded";
      }
    }
    if (parent_ != nullptr && parent_->cancelled()) return parent_->reason();
    return "cancelled";
  }

  /// Ok while live; CancelledError(reason) once tripped. The poll-point
  /// idiom: `GRAPHSD_RETURN_IF_ERROR(cancel.Check());`
  Status Check() const {
    if (!cancelled()) return Status::Ok();
    return CancelledError(reason());
  }

 private:
  std::atomic<bool> cancelled_{false};
  std::atomic<const char*> reason_{nullptr};
  std::atomic<std::int64_t> deadline_ns_{0};
  const CancellationToken* parent_ = nullptr;
};

}  // namespace graphsd
