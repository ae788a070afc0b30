#include "util/thread_pool.hpp"

#include <algorithm>
#include <utility>

#include "util/status.hpp"

namespace graphsd {

ThreadPool::ThreadPool(std::size_t workers) {
  if (workers == 0) {
    workers = std::max<std::size_t>(1, std::thread::hardware_concurrency());
  }
  workers_.reserve(workers);
  for (std::size_t i = 0; i < workers; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::unique_lock<std::mutex> lock(mutex_);
    shutting_down_ = true;
  }
  task_available_.notify_all();
  for (auto& worker : workers_) worker.join();
}

void ThreadPool::Submit(std::function<void()> task) {
  {
    std::unique_lock<std::mutex> lock(mutex_);
    GRAPHSD_CHECK(!shutting_down_);
    tasks_.push(std::move(task));
    ++in_flight_;
  }
  task_available_.notify_one();
}

void ThreadPool::Wait() {
  std::unique_lock<std::mutex> lock(mutex_);
  all_done_.wait(lock, [this] { return in_flight_ == 0; });
  if (first_exception_ != nullptr) {
    std::exception_ptr pending = std::exchange(first_exception_, nullptr);
    lock.unlock();
    std::rethrow_exception(pending);
  }
}

void ThreadPool::WorkerLoop() {
  for (;;) {
    std::function<void()> task;
    {
      std::unique_lock<std::mutex> lock(mutex_);
      task_available_.wait(
          lock, [this] { return shutting_down_ || !tasks_.empty(); });
      if (tasks_.empty()) {
        if (shutting_down_) return;
        continue;
      }
      task = std::move(tasks_.front());
      tasks_.pop();
    }
    std::exception_ptr thrown;
    try {
      task();
    } catch (...) {
      thrown = std::current_exception();
    }
    {
      std::unique_lock<std::mutex> lock(mutex_);
      if (thrown != nullptr && first_exception_ == nullptr) {
        first_exception_ = thrown;
      }
      if (--in_flight_ == 0) all_done_.notify_all();
    }
  }
}

}  // namespace graphsd
