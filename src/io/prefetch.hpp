// Asynchronous prefetch: overlap device reads with compute.
//
// A PrefetchPipeline is one dedicated loader thread plus its look-ahead
// depth and `prefetch.*` counters. Fetch closures run ahead of the
// consumer on the loader thread while the consumer applies edges, so disk
// time hides behind compute time. The loader is deliberately a single
// thread: the modeled device is serial (one head position, one virtual
// clock), and a single worker executes tasks in submission order, which is
// what makes the performed read sequence — and therefore byte counts,
// sequential/random classification, and fault-injection behavior — exactly
// match the synchronous path.
//
// PrefetchStream<Payload> is the planning front-end the executors use: a
// fixed, ordered plan of fetch units consumed strictly FIFO with a
// look-ahead window of `depth` units, one future per issued unit. Each unit
// may carry a skip probe (evaluated on the consumer thread at issue time)
// so already-resident sub-blocks are never re-read. With a null or disabled
// pipeline the stream degrades to running each fetch inline at Take(),
// i.e. the synchronous path is the same code minus the look-ahead.
//
// Failure and cancellation are scoped to the stream. Once one of its
// fetches returns a non-OK Status, or its cancellation token has tripped,
// the stream's later fetches are skipped and resolve to that status without
// touching the device — exactly as a synchronous loop would never have
// issued reads past its first failure. Other streams on the same pipeline,
// concurrent or later (a full-streaming redo), are unaffected. A fetch that
// throws rethrows at Take(), at any depth.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <functional>
#include <future>
#include <memory>
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
  /// pipeline entirely (no loader thread is started).
  explicit PrefetchPipeline(std::size_t depth);

  PrefetchPipeline(const PrefetchPipeline&) = delete;
  PrefetchPipeline& operator=(const PrefetchPipeline&) = delete;

  bool enabled() const noexcept { return loader_ != nullptr; }
  std::size_t depth() const noexcept { return depth_; }

  /// Publishes depth and lifetime loader counters as `prefetch.*` gauges
  /// (snapshot semantics: safe to call repeatedly, last write wins).
  void PublishMetrics(obs::MetricsRegistry& metrics) const;

 private:
  template <typename Payload>
  friend class PrefetchStream;

  /// Schedules `task` on the loader thread; the future carries its Status
  /// or its exception. Valid only when enabled().
  std::future<Status> Submit(std::function<Status()> task);

  std::size_t depth_;
  std::atomic<std::uint64_t> submitted_{0};
  std::atomic<std::uint64_t> skipped_{0};  // after a failure or cancel
  std::unique_ptr<ThreadPool> loader_;
};

/// FIFO stream of planned fetches with bounded look-ahead. Single consumer
/// thread; the loader thread only ever touches the payload a fetch closure
/// was handed and the stream's first failure (publication happens-before
/// Take() via the unit's future).
template <typename Payload>
class PrefetchStream {
 public:
  struct Unit {
    /// Evaluated on the consumer thread when the unit is issued (which in
    /// synchronous mode is also when it is consumed). True = don't fetch.
    std::function<bool()> skip;
    /// Performs the accounted reads and fills the payload. Runs on the
    /// loader thread when prefetching, inline at Take() otherwise.
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
      Unit& unit = plan_[consumed_++];
      if (unit.skip && unit.skip()) return item;
      item.fetched = true;
      item.status = Fetch(unit.fetch, item.payload);
      return item;
    }
    Pending pending = std::move(window_.front());
    window_.pop_front();
    ++consumed_;
    FillWindow();
    if (!pending.done.valid()) return item;
    item.fetched = true;
    item.status = pending.done.get();
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
      Unit& unit = plan_[issued_++];
      Pending pending;
      if (!(unit.skip && unit.skip())) {
        pending.payload = std::make_unique<Payload>();
        pending.done = pipeline_->Submit(
            [this, fetch = std::move(unit.fetch),
             out = pending.payload.get()] { return Fetch(fetch, *out); });
      }
      window_.push_back(std::move(pending));
    }
  }

  /// Runs one fetch unless the stream has already failed or been
  /// cancelled. Only one thread ever calls it per stream: the loader (in
  /// plan order) when prefetching, the consumer otherwise.
  Status Fetch(const std::function<Status(Payload&)>& fetch, Payload& out) {
    if (failed_.ok() && cancel_ != nullptr) failed_ = cancel_->Check();
    if (!failed_.ok()) {
      if (pipeline_ != nullptr) ++pipeline_->skipped_;
      return failed_;
    }
    Status status = fetch(out);
    if (!status.ok()) failed_ = status;
    return status;
  }

  PrefetchPipeline* pipeline_;  // null = synchronous mode
  const CancellationToken* cancel_;
  std::vector<Unit> plan_;
  std::size_t issued_ = 0;
  std::size_t consumed_ = 0;
  std::deque<Pending> window_;
  Status failed_ = Status::Ok();  // first failure (or cancel) of any fetch
};

}  // namespace graphsd::io
