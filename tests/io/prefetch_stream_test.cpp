#include "io/prefetch.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdlib>
#include <future>
#include <mutex>
#include <stdexcept>
#include <thread>
#include <utility>
#include <vector>

#include <unistd.h>

#include <gtest/gtest.h>

#include "obs/metrics.hpp"
#include "testing_util.hpp"

namespace graphsd::io {
namespace {

using Stream = PrefetchStream<int>;

constexpr std::size_t kDepths[] = {0, 1, 4};

/// A unit that writes `value` and counts its execution in `executed`.
Stream::Unit CountingUnit(int value, std::atomic<int>& executed) {
  Stream::Unit unit;
  unit.fetch = [value, &executed](int& out) {
    ++executed;
    out = value;
    return Status::Ok();
  };
  return unit;
}

Stream::Unit FailingUnit() {
  Stream::Unit unit;
  unit.fetch = [](int&) { return IoError("injected"); };
  return unit;
}

double SkippedGauge(const PrefetchPipeline& pipeline) {
  obs::MetricsRegistry metrics;
  pipeline.PublishMetrics(metrics);
  return metrics.GetGauge("prefetch.skipped").value();
}

TEST(PrefetchStream, PlanOrderWithSkipProbesAtEveryDepth) {
  for (const std::size_t depth : kDepths) {
    SCOPED_TRACE(depth);
    PrefetchPipeline pipeline(depth);
    std::mutex mutex;
    std::vector<int> fetch_order;
    std::vector<int> probe_order;  // consumer thread only
    std::vector<Stream::Unit> plan;
    for (int i = 0; i < 16; ++i) {
      Stream::Unit unit;
      unit.skip = [i, &probe_order] {
        probe_order.push_back(i);
        return i % 3 == 0;
      };
      unit.fetch = [i, &mutex, &fetch_order](int& out) {
        std::lock_guard<std::mutex> lock(mutex);
        fetch_order.push_back(i);
        out = i * 10;
        return Status::Ok();
      };
      plan.push_back(std::move(unit));
    }
    Stream stream(&pipeline, std::move(plan));
    for (int i = 0; i < 16; ++i) {
      Stream::Item item = stream.Take();
      EXPECT_OK(item.status);
      EXPECT_EQ(item.fetched, i % 3 != 0);
      if (item.fetched) {
        EXPECT_EQ(item.payload, i * 10);
      }
    }
    EXPECT_EQ(stream.consumed(), 16u);
    std::vector<int> expected_fetches;
    std::vector<int> expected_probes;
    for (int i = 0; i < 16; ++i) {
      expected_probes.push_back(i);
      if (i % 3 != 0) expected_fetches.push_back(i);
    }
    EXPECT_EQ(probe_order, expected_probes);
    std::lock_guard<std::mutex> lock(mutex);
    EXPECT_EQ(fetch_order, expected_fetches);
  }
}

TEST(PrefetchStream, LookAheadNeverExceedsDepth) {
  constexpr std::size_t kUnits = 12;
  for (const std::size_t depth : {std::size_t{1}, std::size_t{4}}) {
    SCOPED_TRACE(depth);
    PrefetchPipeline pipeline(depth);
    std::size_t issued = 0;  // skip probes run on this thread at issue time
    std::atomic<int> executed{0};
    std::vector<Stream::Unit> plan;
    for (std::size_t i = 0; i < kUnits; ++i) {
      Stream::Unit unit = CountingUnit(static_cast<int>(i), executed);
      unit.skip = [&issued] {
        ++issued;
        return false;
      };
      plan.push_back(std::move(unit));
    }
    Stream stream(&pipeline, std::move(plan));
    EXPECT_EQ(issued, depth);
    for (std::size_t taken = 1; taken <= kUnits; ++taken) {
      EXPECT_OK(stream.Take().status);
      EXPECT_EQ(issued, std::min(kUnits, taken + depth));
    }
    EXPECT_EQ(executed.load(), static_cast<int>(kUnits));
  }
}

TEST(PrefetchStream, LaterFetchesSkippedAfterFirstFailure) {
  for (const std::size_t depth : kDepths) {
    SCOPED_TRACE(depth);
    PrefetchPipeline pipeline(depth);
    std::atomic<int> before{0};
    std::atomic<int> after{0};
    std::vector<Stream::Unit> plan;
    plan.push_back(CountingUnit(1, before));
    plan.push_back(FailingUnit());
    plan.push_back(CountingUnit(3, after));
    plan.push_back(CountingUnit(4, after));
    Stream stream(&pipeline, std::move(plan));
    EXPECT_OK(stream.Take().status);
    for (int i = 0; i < 3; ++i) {
      const Stream::Item item = stream.Take();
      EXPECT_TRUE(item.fetched);
      EXPECT_EQ(item.status.code(), StatusCode::kIoError);
    }
    EXPECT_EQ(before.load(), 1);
    EXPECT_EQ(after.load(), 0);
    EXPECT_EQ(SkippedGauge(pipeline), depth == 0 ? 0.0 : 2.0);
  }
}

TEST(PrefetchStream, CancelledTokenDrainsWithoutDeviceIo) {
  for (const std::size_t depth : kDepths) {
    SCOPED_TRACE(depth);
    PrefetchPipeline pipeline(depth);
    CancellationToken token;
    std::atomic<int> after{0};
    std::vector<Stream::Unit> plan;
    Stream::Unit trip;
    trip.fetch = [&token](int& out) {
      token.Cancel("test stop");
      out = 1;
      return Status::Ok();
    };
    plan.push_back(std::move(trip));
    for (int i = 0; i < 5; ++i) plan.push_back(CountingUnit(i, after));
    Stream stream(&pipeline, std::move(plan), &token);
    EXPECT_OK(stream.Take().status);
    for (int i = 0; i < 5; ++i) {
      EXPECT_EQ(stream.Take().status.code(), StatusCode::kCancelled);
    }
    EXPECT_EQ(after.load(), 0);
  }
}

TEST(PrefetchStream, DestructorWaitsForUntakenFetches) {
  constexpr std::size_t kDepth = 4;
  PrefetchPipeline pipeline(kDepth);
  std::atomic<int> executed{0};
  {
    std::vector<Stream::Unit> plan;
    for (int i = 0; i < 8; ++i) {
      Stream::Unit unit;
      unit.fetch = [&executed](int&) {
        std::this_thread::sleep_for(std::chrono::milliseconds(2));
        ++executed;
        return Status::Ok();
      };
      plan.push_back(std::move(unit));
    }
    Stream stream(&pipeline, std::move(plan));
    EXPECT_OK(stream.Take().status);
    // Units 1..4 are in the window and never taken.
  }
  EXPECT_EQ(executed.load(), 1 + static_cast<int>(kDepth));
}

TEST(PrefetchStream, FailureStaysWithItsStreamOnSharedPipeline) {
  // One loader serves every stream, as under `graphsd serve`. Stream A's
  // failure must fail neither a concurrent stream B nor a redo stream C
  // opened while A still has a fetch outstanding.
  PrefetchPipeline shared(4);
  std::atomic<int> a_after{0};
  std::vector<Stream::Unit> a_plan;
  a_plan.push_back(FailingUnit());
  a_plan.push_back(CountingUnit(2, a_after));
  Stream a(&shared, std::move(a_plan));

  std::atomic<int> b_executed{0};
  std::vector<Stream::Unit> b_plan;
  for (int i = 0; i < 3; ++i) b_plan.push_back(CountingUnit(i, b_executed));
  Stream b(&shared, std::move(b_plan));

  EXPECT_EQ(a.Take().status.code(), StatusCode::kIoError);
  for (int i = 0; i < 3; ++i) {
    const Stream::Item item = b.Take();
    EXPECT_OK(item.status);
    EXPECT_EQ(item.payload, i);
  }
  EXPECT_EQ(b_executed.load(), 3);

  std::atomic<int> c_executed{0};
  std::vector<Stream::Unit> c_plan;
  for (int i = 0; i < 2; ++i) c_plan.push_back(CountingUnit(i, c_executed));
  Stream c(&shared, std::move(c_plan));
  for (int i = 0; i < 2; ++i) EXPECT_OK(c.Take().status);
  EXPECT_EQ(c_executed.load(), 2);

  EXPECT_EQ(a.Take().status.code(), StatusCode::kIoError);
  EXPECT_EQ(a_after.load(), 0);
}

// Two readers finish units out of order (each unit sleeps less than the one
// before it); Take() still hands them over in plan order.
TEST(PrefetchStream, TwoReadersHandOverInPlanOrder) {
  PrefetchPipeline pipeline(4, 2);
  EXPECT_EQ(pipeline.readers(), 2u);
  std::vector<Stream::Unit> plan;
  for (int i = 0; i < 8; ++i) {
    Stream::Unit unit;
    unit.fetch = [i](int& out) {
      std::this_thread::sleep_for(std::chrono::milliseconds(8 - i));
      out = i;
      return Status::Ok();
    };
    plan.push_back(std::move(unit));
  }
  Stream stream(&pipeline, std::move(plan));
  for (int i = 0; i < 8; ++i) {
    const Stream::Item item = stream.Take();
    EXPECT_OK(item.status);
    EXPECT_EQ(item.payload, i);
  }
}

// A later unit failing on the other reader does not fail an earlier unit
// still in flight: the stream surfaces the first failure in plan order.
TEST(PrefetchStream, EarlierUnitStillRunsWhenALaterOneFailsFirst) {
  PrefetchPipeline pipeline(4, 2);
  std::atomic<int> after{0};
  std::vector<Stream::Unit> plan;
  Stream::Unit slow;
  slow.fetch = [](int& out) {
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    out = 7;
    return Status::Ok();
  };
  plan.push_back(std::move(slow));
  plan.push_back(FailingUnit());
  for (int i = 0; i < 4; ++i) plan.push_back(CountingUnit(i, after));
  Stream stream(&pipeline, std::move(plan));
  const Stream::Item first = stream.Take();
  EXPECT_OK(first.status);
  EXPECT_EQ(first.payload, 7);
  for (int i = 0; i < 5; ++i) {
    EXPECT_EQ(stream.Take().status.code(), StatusCode::kIoError);
  }
  EXPECT_EQ(after.load(), 0);
}

// A later unit that already ran on the other reader when an earlier unit
// failed resolves to that failure at Take(): the failed units form one
// suffix of the plan, and the later unit's payload is dropped.
TEST(PrefetchStream, LaterUnitAlreadyRunResolvesToAnEarlierFailure) {
  PrefetchPipeline pipeline(4, 2);
  std::atomic<int> later{0};
  std::promise<void> later_ran;
  std::future<void> later_done = later_ran.get_future();
  std::vector<Stream::Unit> plan;
  Stream::Unit failing;
  failing.fetch = [&later_done](int&) {
    // Fail only once unit 1 has run to completion on the other reader.
    later_done.wait_for(std::chrono::seconds(10));
    return IoError("injected");
  };
  plan.push_back(std::move(failing));
  Stream::Unit running;
  running.fetch = [&later, &later_ran](int& out) {
    ++later;
    out = 1;
    later_ran.set_value();
    return Status::Ok();
  };
  plan.push_back(std::move(running));
  plan.push_back(CountingUnit(2, later));
  Stream stream(&pipeline, std::move(plan));
  for (int i = 0; i < 3; ++i) {
    const Stream::Item item = stream.Take();
    EXPECT_TRUE(item.fetched);
    EXPECT_EQ(item.status.code(), StatusCode::kIoError);
    EXPECT_EQ(item.payload, 0);
  }
  // Unit 1 ran before the failure; unit 2 may have run too, if the other
  // reader started it before unit 0 recorded its failure.
  EXPECT_GE(later.load(), 1);
}

TEST(PrefetchStream, ThrowingFetchRethrowsAtTakeAtEveryDepth) {
  // Each check runs in a child process under an alarm, so a Take() that
  // never returns fails the test instead of stalling the suite.
  for (const std::size_t depth : kDepths) {
    SCOPED_TRACE(depth);
    EXPECT_EXIT(
        {
          ::alarm(10);
          int exit_code = 1;
          {
            PrefetchPipeline pipeline(depth);
            std::vector<Stream::Unit> plan;
            Stream::Unit unit;
            unit.fetch = [](int&) -> Status {
              throw std::runtime_error("fetch threw");
            };
            plan.push_back(std::move(unit));
            Stream stream(&pipeline, std::move(plan));
            try {
              (void)stream.Take();
            } catch (const std::runtime_error&) {
              exit_code = 0;
            }
          }
          std::_Exit(exit_code);
        },
        ::testing::ExitedWithCode(0), "");
  }
}

}  // namespace
}  // namespace graphsd::io
