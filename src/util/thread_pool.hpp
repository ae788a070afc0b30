// A small fixed-size thread pool with a blocking `ParallelFor`.
//
// Edge application never runs on the pool: one consumer thread applies
// every pass (core/program.hpp), so results do not depend on the pool size.
// The engine pool only preverifies SCIU checksums (core/sciu_executor.hpp).
// It is created once per engine run and reused across iterations (no
// per-iteration thread churn). The prefetch pipeline (io/prefetch.hpp) runs
// its loader on a dedicated single-worker pool.
//
// A task that throws does not kill the worker: the first exception is
// captured and rethrown to the next caller of Wait(). Later exceptions from
// the same batch are dropped — one failure is enough to fail the wait,
// matching Status-style first-error-wins propagation. ParallelFor is
// batch-scoped: it waits only on the chunks it submitted and rethrows only
// their first exception, so it neither drains unrelated Submit() tasks nor
// exchanges exceptions with them.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <exception>
#include <functional>
#include <mutex>
#include <queue>
#include <thread>
#include <vector>

namespace graphsd {

class ThreadPool {
 public:
  /// Creates a pool of `num_threads` workers. `num_threads == 0` means
  /// hardware concurrency (at least 1).
  explicit ThreadPool(std::size_t num_threads = 0);

  /// Joins all workers. Pending tasks are drained first. An unconsumed
  /// task exception is swallowed (destructors must not throw).
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Number of worker threads.
  std::size_t size() const noexcept { return workers_.size(); }

  /// Enqueues a task for asynchronous execution.
  void Submit(std::function<void()> task);

  /// Blocks until all previously submitted tasks have completed. If any
  /// task threw since the last Wait(), rethrows the first such exception
  /// (after all tasks have drained, so no task is left running).
  void Wait();

  /// Splits [begin, end) into chunks of at most `grain` items and runs
  /// `fn(chunk_begin, chunk_end)` across the pool. Blocks until this call's
  /// chunks are done (concurrently submitted unrelated tasks may still be
  /// running). With a single worker (or a tiny range) runs inline — zero
  /// overhead. Rethrows the first exception thrown by any of its own
  /// chunks; exceptions from unrelated Submit() tasks stay with Wait().
  /// Safe to call from inside a pool task (nested parallelism): the waiting
  /// caller claims and executes its own batch's chunks inline, so it never
  /// deadlocks behind workers that are themselves blocked in ParallelFor.
  void ParallelFor(std::size_t begin, std::size_t end, std::size_t grain,
                   const std::function<void(std::size_t, std::size_t)>& fn);

 private:
  void WorkerLoop();

  std::vector<std::thread> workers_;
  std::queue<std::function<void()>> tasks_;
  std::mutex mutex_;
  std::condition_variable task_available_;
  std::condition_variable all_done_;
  std::size_t in_flight_ = 0;
  bool shutting_down_ = false;
  std::exception_ptr first_exception_;
};

}  // namespace graphsd
