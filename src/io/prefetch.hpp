// Asynchronous prefetch: overlap device reads with compute.
//
// A PrefetchPipeline is a small set of dedicated reader threads plus its
// look-ahead depth and `prefetch.*` counters. Fetch closures run ahead of
// the consumer on the readers while the consumer applies edges, so disk
// time hides behind compute time. Each reader runs whole fetch units (read,
// CRC, decode); units start in submission order and are handed over in
// plan order whatever order they finish in.
//
// A device that charges virtual time gets exactly one reader: the modeled
// device is serial (one head position, one virtual clock), and a single
// reader executes units in submission order, which is what makes the
// performed read sequence — and therefore byte counts, sequential/random
// classification, and fault-injection behavior — exactly match the
// synchronous path. A real device gets Device::reads_in_flight() readers,
// so that many reads overlap on the device itself (DESIGN.md §8).
//
// PrefetchStream<Payload> is the planning front-end the executors use: a
// fixed, ordered plan of fetch units consumed strictly FIFO with a
// look-ahead window of `depth` units, one future per issued unit. Each unit
// may carry a skip probe (evaluated on the consumer thread at issue time)
// so already-resident sub-blocks are never re-read. With a null or disabled
// pipeline the stream degrades to running each fetch inline at Take(),
// i.e. the synchronous path is the same code minus the look-ahead.
//
// Failure and cancellation are scoped to the stream and ordered by the
// plan. Once one of its fetches returns a non-OK Status, or its
// cancellation token has tripped, the stream's fetches later in the plan
// are skipped and resolve to that status without touching the device —
// exactly as a synchronous loop would never have issued reads past its
// first failure. A later fetch another reader had already started resolves
// to that status too, at Take(), so the failed units always form one
// suffix of the plan. A fetch earlier in the plan still runs and reports
// its own status, so Take() surfaces the first failure in plan order at any
// reader count. Other streams on the same pipeline, concurrent or later (a
// full-streaming redo), are unaffected. A fetch that throws rethrows at
// Take(), at any depth.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <functional>
#include <future>
#include <limits>
#include <memory>
#include <mutex>
#include <utility>
#include <vector>

#include "util/cancellation.hpp"
#include "util/status.hpp"
#include "util/thread_pool.hpp"

namespace graphsd::obs {
class MetricsRegistry;
}  // namespace graphsd::obs

namespace graphsd::io {

class PrefetchPipeline {
 public:
  /// `depth` is the look-ahead window in fetch units; 0 disables the
  /// pipeline entirely (no reader thread is started). `readers` threads
  /// (at least 1) run fetch units; see the header comment for how many a
  /// device gets.
  explicit PrefetchPipeline(std::size_t depth, std::size_t readers = 1);

  PrefetchPipeline(const PrefetchPipeline&) = delete;
  PrefetchPipeline& operator=(const PrefetchPipeline&) = delete;

  bool enabled() const noexcept { return loader_ != nullptr; }
  std::size_t depth() const noexcept { return depth_; }
  /// Reader threads running fetch units (0 when disabled).
  std::size_t readers() const noexcept {
    return enabled() ? loader_->size() : 0;
  }

  /// Publishes depth, reader count and lifetime loader counters as
  /// `prefetch.*` gauges (snapshot semantics: safe to call repeatedly, last
  /// write wins).
  void PublishMetrics(obs::MetricsRegistry& metrics) const;

 private:
  template <typename Payload>
  friend class PrefetchStream;

  /// Schedules `task` on a reader thread; the future carries its Status or
  /// its exception. Valid only when enabled().
  std::future<Status> Submit(std::function<Status()> task);

  std::size_t depth_;
  std::atomic<std::uint64_t> submitted_{0};
  std::atomic<std::uint64_t> skipped_{0};  // after a failure or cancel
  std::unique_ptr<ThreadPool> loader_;
};

/// FIFO stream of planned fetches with bounded look-ahead. Single consumer
/// thread; a reader thread only ever touches the payload a fetch closure
/// was handed (publication happens-before Take() via the unit's future) and
/// the stream's failure record, which a mutex guards.
template <typename Payload>
class PrefetchStream {
 public:
  struct Unit {
    /// Evaluated on the consumer thread when the unit is issued (which in
    /// synchronous mode is also when it is consumed). True = don't fetch.
    std::function<bool()> skip;
    /// Performs the accounted reads and fills the payload. Runs on a
    /// reader thread when prefetching (concurrently with other units when
    /// the pipeline has several readers), inline at Take() otherwise.
    std::function<Status(Payload&)> fetch;
  };

  struct Item {
    bool fetched = false;  // false: the skip probe fired
    Status status = Status::Ok();
    Payload payload{};
  };

  /// `pipeline` may be null or disabled (synchronous mode). `cancel` (may
  /// be null) is checked before each fetch. The plan is consumed in order
  /// by Take(); issuing starts immediately.
  PrefetchStream(PrefetchPipeline* pipeline, std::vector<Unit> plan,
                 const CancellationToken* cancel = nullptr)
      : pipeline_(pipeline != nullptr && pipeline->enabled() ? pipeline
                                                             : nullptr),
        cancel_(cancel),
        plan_(std::move(plan)) {
    if (pipeline_ != nullptr) FillWindow();
  }

  /// Waits out any fetches the consumer never took (error unwinds): they
  /// write into this stream.
  ~PrefetchStream() {
    for (Pending& pending : window_) {
      if (pending.done.valid()) pending.done.wait();
    }
  }

  PrefetchStream(const PrefetchStream&) = delete;
  PrefetchStream& operator=(const PrefetchStream&) = delete;

  /// Consumes the next planned unit, in plan order. Rethrows an exception
  /// thrown by the unit's fetch.
  Item Take() {
    GRAPHSD_CHECK(consumed_ < plan_.size());
    Item item;
    if (pipeline_ == nullptr) {
      const std::size_t index = consumed_++;
      Unit& unit = plan_[index];
      if (unit.skip && unit.skip()) return item;
      item.fetched = true;
      item.status = Fetch(index, unit.fetch, item.payload);
      return item;
    }
    Pending pending = std::move(window_.front());
    window_.pop_front();
    const std::size_t index = consumed_++;
    FillWindow();
    if (!pending.done.valid()) return item;
    item.fetched = true;
    item.status = pending.done.get();
    if (item.status.ok()) {
      // This unit's fetch may have passed its check before an earlier unit
      // failed. Every earlier unit's fetch has finished by now, so any
      // earlier failure is already recorded.
      std::lock_guard<std::mutex> lock(failure_mutex_);
      if (failed_at_ < index) {
        item.status = failed_;
        return item;
      }
    }
    item.payload = std::move(*pending.payload);
    return item;
  }

  std::size_t consumed() const noexcept { return consumed_; }
  std::size_t planned() const noexcept { return plan_.size(); }

 private:
  struct Pending {
    std::future<Status> done;  // invalid: the skip probe fired
    // Heap slot the loader writes into; stable across deque shuffles.
    std::unique_ptr<Payload> payload;
  };

  void FillWindow() {
    while (issued_ < plan_.size() && window_.size() < pipeline_->depth()) {
      const std::size_t index = issued_++;
      Unit& unit = plan_[index];
      Pending pending;
      if (!(unit.skip && unit.skip())) {
        pending.payload = std::make_unique<Payload>();
        pending.done = pipeline_->Submit(
            [this, index, fetch = std::move(unit.fetch),
             out = pending.payload.get()] {
              return Fetch(index, fetch, *out);
            });
      }
      window_.push_back(std::move(pending));
    }
  }

  /// Runs plan unit `index` unless a unit earlier in the plan has failed
  /// or the stream was cancelled. Called by the readers when prefetching
  /// (possibly several at once), by the consumer otherwise.
  Status Fetch(std::size_t index,
               const std::function<Status(Payload&)>& fetch, Payload& out) {
    {
      std::lock_guard<std::mutex> lock(failure_mutex_);
      if (failed_at_ > index && cancel_ != nullptr) {
        if (Status cancelled = cancel_->Check(); !cancelled.ok()) {
          failed_at_ = index;
          failed_ = cancelled;
        }
      }
      if (failed_at_ <= index) {
        if (pipeline_ != nullptr) ++pipeline_->skipped_;
        return failed_;
      }
    }
    Status status = fetch(out);
    if (!status.ok()) {
      std::lock_guard<std::mutex> lock(failure_mutex_);
      if (index < failed_at_) {
        failed_at_ = index;
        failed_ = status;
      }
    }
    return status;
  }

  PrefetchPipeline* pipeline_;  // null = synchronous mode
  const CancellationToken* cancel_;
  std::vector<Unit> plan_;
  std::size_t issued_ = 0;
  std::size_t consumed_ = 0;
  std::deque<Pending> window_;
  // The earliest plan index that failed (or saw the cancel), and its
  // status; kNoFailure while every fetch so far succeeded.
  static constexpr std::size_t kNoFailure =
      std::numeric_limits<std::size_t>::max();
  std::mutex failure_mutex_;
  std::size_t failed_at_ = kNoFailure;
  Status failed_ = Status::Ok();
};

}  // namespace graphsd::io
