#include "util/thread_pool.hpp"

#include <atomic>
#include <stdexcept>

#include <gtest/gtest.h>

namespace graphsd {
namespace {

TEST(ThreadPool, RunsSubmittedTasks) {
  ThreadPool pool(3);
  EXPECT_EQ(pool.size(), 3u);
  std::atomic<int> counter{0};
  for (int i = 0; i < 100; ++i) {
    pool.Submit([&] { counter.fetch_add(1); });
  }
  pool.Wait();
  EXPECT_EQ(counter.load(), 100);
}

TEST(ThreadPool, WaitOnIdlePoolReturnsImmediately) {
  ThreadPool pool(2);
  pool.Wait();  // must not hang
}

TEST(ThreadPool, ZeroThreadRequestDefaultsToAtLeastOne) {
  ThreadPool pool(0);
  EXPECT_GE(pool.size(), 1u);
  std::atomic<int> counter{0};
  pool.Submit([&] { counter.fetch_add(1); });
  pool.Wait();
  EXPECT_EQ(counter.load(), 1);
}

TEST(ThreadPool, WaitRethrowsTaskException) {
  ThreadPool pool(2);
  pool.Submit([] { throw std::runtime_error("task failed"); });
  EXPECT_THROW(pool.Wait(), std::runtime_error);
}

TEST(ThreadPool, ExceptionDoesNotKillWorkersOrLaterBatches) {
  ThreadPool pool(2);
  pool.Submit([] { throw std::runtime_error("task failed"); });
  EXPECT_THROW(pool.Wait(), std::runtime_error);
  // The pool stays usable: the worker survived and the exception slot is
  // cleared once consumed.
  std::atomic<int> counter{0};
  for (int i = 0; i < 8; ++i) {
    pool.Submit([&] { counter.fetch_add(1); });
  }
  pool.Wait();  // must not rethrow again
  EXPECT_EQ(counter.load(), 8);
}

TEST(ThreadPool, FirstExceptionWinsAndLaterOnesAreDropped) {
  ThreadPool pool(2);
  for (int i = 0; i < 8; ++i) {
    pool.Submit([] { throw std::runtime_error("one of many"); });
  }
  EXPECT_THROW(pool.Wait(), std::runtime_error);
  pool.Wait();  // the batch is drained; nothing left to rethrow
}

TEST(ThreadPool, WaitDrainsAllTasksBeforeRethrowing) {
  // The rethrow must not leave tasks of the same batch still running.
  ThreadPool pool(4);
  std::atomic<int> completed{0};
  pool.Submit([] { throw std::runtime_error("early failure"); });
  for (int i = 0; i < 16; ++i) {
    pool.Submit([&completed] { completed.fetch_add(1); });
  }
  EXPECT_THROW(pool.Wait(), std::runtime_error);
  EXPECT_EQ(completed.load(), 16);
}

}  // namespace
}  // namespace graphsd
