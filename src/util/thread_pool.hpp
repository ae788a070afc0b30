// A small fixed-size thread pool: Submit tasks, Wait for all of them.
//
// Its one engine caller is the prefetch pipeline (io/prefetch.hpp), whose
// readers are a pool of K workers: one on a device that charges virtual
// time, two on a real one. An engine run is those readers plus the one
// consumer thread that applies every pass (core/program.hpp).
//
// A task that throws does not kill the worker: the first exception is
// captured and rethrown to the next caller of Wait(). Later exceptions from
// the same batch are dropped — one failure is enough to fail the wait,
// matching Status-style first-error-wins propagation.
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
  /// Creates a pool of `workers` threads. `workers == 0` means hardware
  /// concurrency (at least 1).
  explicit ThreadPool(std::size_t workers = 0);

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
