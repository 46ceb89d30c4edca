#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <future>
#include <mutex>
#include <stdexcept>
#include <thread>
#include <utility>
#include <vector>

#include "par/parallel.h"
#include "par/thread_pool.h"

namespace subrec::par {
namespace {

TEST(ParallelFor, CoversEveryIndexExactlyOnce) {
  for (size_t threads : {size_t{1}, size_t{2}, size_t{4}}) {
    ScopedNumThreads scoped(threads);
    std::vector<int> hits(1237, 0);
    ParallelFor(hits.size(), 64, [&](size_t begin, size_t end) {
      for (size_t i = begin; i < end; ++i) ++hits[i];
    });
    EXPECT_TRUE(std::all_of(hits.begin(), hits.end(),
                            [](int h) { return h == 1; }))
        << "threads=" << threads;
  }
}

TEST(ParallelFor, ZeroLengthRangeNeverCallsBody) {
  for (size_t threads : {size_t{1}, size_t{4}}) {
    ScopedNumThreads scoped(threads);
    bool called = false;
    ParallelFor(0, 16, [&](size_t, size_t) { called = true; });
    EXPECT_FALSE(called);
  }
}

TEST(ParallelFor, ZeroGrainBehavesAsGrainOne) {
  ScopedNumThreads scoped(2);
  std::vector<int> hits(17, 0);
  ParallelFor(hits.size(), 0, [&](size_t begin, size_t end) {
    for (size_t i = begin; i < end; ++i) ++hits[i];
  });
  for (int h : hits) EXPECT_EQ(h, 1);
}

TEST(ParallelFor, ChunkBoundariesIndependentOfThreadCount) {
  const auto chunks_at = [](size_t threads) {
    ScopedNumThreads scoped(threads);
    std::mutex mu;
    std::vector<std::pair<size_t, size_t>> chunks;
    ParallelFor(1000, 96, [&](size_t begin, size_t end) {
      std::lock_guard<std::mutex> lock(mu);
      chunks.emplace_back(begin, end);
    });
    std::sort(chunks.begin(), chunks.end());
    return chunks;
  };
  const auto serial = chunks_at(1);
  EXPECT_EQ(serial, chunks_at(2));
  EXPECT_EQ(serial, chunks_at(4));
  // The grid itself is [c*grain, min(n, (c+1)*grain)).
  ASSERT_EQ(serial.size(), 11u);
  EXPECT_EQ(serial.front(), (std::pair<size_t, size_t>{0, 96}));
  EXPECT_EQ(serial.back(), (std::pair<size_t, size_t>{960, 1000}));
}

TEST(ParallelFor, NestedRegionsRunInline) {
  ScopedNumThreads scoped(4);
  EXPECT_FALSE(InParallelRegion());
  std::atomic<int> inner_total{0};
  ParallelFor(8, 1, [&](size_t begin, size_t end) {
    EXPECT_TRUE(InParallelRegion());
    for (size_t i = begin; i < end; ++i) {
      // Must not deadlock waiting for pool threads already busy with the
      // outer region; nested calls execute inline on this thread.
      ParallelFor(4, 1, [&](size_t b, size_t e) {
        inner_total.fetch_add(static_cast<int>(e - b));
      });
    }
  });
  EXPECT_FALSE(InParallelRegion());
  EXPECT_EQ(inner_total.load(), 32);
}

TEST(ParallelFor, ExceptionPropagatesToCaller) {
  for (size_t threads : {size_t{1}, size_t{4}}) {
    ScopedNumThreads scoped(threads);
    EXPECT_THROW(
        ParallelFor(100, 10,
                    [&](size_t begin, size_t) {
                      if (begin == 50) throw std::runtime_error("chunk 5");
                    }),
        std::runtime_error);
    // The runtime must be reusable after an aborted region.
    std::atomic<int> total{0};
    ParallelFor(100, 10, [&](size_t begin, size_t end) {
      total.fetch_add(static_cast<int>(end - begin));
    });
    EXPECT_EQ(total.load(), 100);
  }
}

TEST(ParallelFor, LowestChunkExceptionWinsWhenSerial) {
  ScopedNumThreads scoped(1);
  try {
    ParallelFor(100, 10, [&](size_t begin, size_t) {
      if (begin == 20) throw std::runtime_error("chunk 2");
      if (begin == 70) throw std::runtime_error("chunk 7");
    });
    FAIL() << "expected throw";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "chunk 2");
  }
}

TEST(ParallelReduce, MatchesSerialSumBitExactly) {
  std::vector<double> values(10007);
  for (size_t i = 0; i < values.size(); ++i)
    values[i] = 1.0 / static_cast<double>(i + 3);
  const auto sum_at = [&](size_t threads) {
    ScopedNumThreads scoped(threads);
    return ParallelReduce(
        values.size(), 128, 0.0,
        [&](size_t begin, size_t end) {
          double s = 0.0;
          for (size_t i = begin; i < end; ++i) s += values[i];
          return s;
        },
        [](double a, double b) { return a + b; });
  };
  const double serial = sum_at(1);
  // Identical chunk grid + ascending-chunk combine order: bit-exact.
  EXPECT_EQ(serial, sum_at(2));
  EXPECT_EQ(serial, sum_at(4));
}

TEST(ParallelReduce, ZeroLengthReturnsInit) {
  ScopedNumThreads scoped(4);
  const double r = ParallelReduce(
      0, 8, 42.0, [](size_t, size_t) { return 0.0; },
      [](double a, double b) { return a + b; });
  EXPECT_EQ(r, 42.0);
}

TEST(Runtime, SetNumThreadsReturnsPreviousOverride) {
  const size_t prev = SetNumThreads(3);
  EXPECT_EQ(SetNumThreads(5), 3u);
  EXPECT_EQ(NumThreads(), 5u);
  SetNumThreads(prev);
}

TEST(Runtime, ScopedNumThreadsRestores) {
  const size_t before = NumThreads();
  {
    ScopedNumThreads scoped(2);
    EXPECT_EQ(NumThreads(), 2u);
    {
      ScopedNumThreads inner(4);
      EXPECT_EQ(NumThreads(), 4u);
    }
    EXPECT_EQ(NumThreads(), 2u);
  }
  EXPECT_EQ(NumThreads(), before);
}

TEST(Runtime, HardwareThreadsIsPositive) {
  EXPECT_GE(HardwareThreads(), 1u);
  EXPECT_GE(NumThreads(), 1u);
}

// TSan hammer: several external threads drive parallel regions against the
// shared pool at once, interleaved with thread-count changes from region
// boundaries. Run under the tsan preset this must be race-free.
TEST(Runtime, ConcurrentRegionsFromManyThreads) {
  ScopedNumThreads scoped(4);
  constexpr int kDrivers = 4;
  constexpr int kRounds = 25;
  std::atomic<long> grand_total{0};
  std::vector<std::thread> drivers;
  drivers.reserve(kDrivers);
  for (int t = 0; t < kDrivers; ++t) {
    drivers.emplace_back([&grand_total] {
      for (int round = 0; round < kRounds; ++round) {
        std::atomic<long> local{0};
        ParallelFor(257, 16, [&](size_t begin, size_t end) {
          long s = 0;
          for (size_t i = begin; i < end; ++i)
            s += static_cast<long>(i);
          local.fetch_add(s);
        });
        grand_total.fetch_add(local.load());
      }
    });
  }
  for (std::thread& d : drivers) d.join();
  const long expected =
      static_cast<long>(kDrivers) * kRounds * (257L * 256L / 2L);
  EXPECT_EQ(grand_total.load(), expected);
}

// --- ThreadPool -----------------------------------------------------------

TEST(ThreadPool, ExecutesEverySubmittedTask) {
  std::atomic<int> count{0};
  {
    ThreadPool pool(4);
    for (int i = 0; i < 500; ++i)
      pool.Submit([&count] { count.fetch_add(1); });
    // Destructor drains the queue before joining.
  }
  EXPECT_EQ(count.load(), 500);
}

TEST(ThreadPool, ReturnsResultsThroughFutures) {
  ThreadPool pool(3);
  std::vector<std::future<int>> futures;
  for (int i = 0; i < 50; ++i)
    futures.push_back(pool.SubmitWithResult([i] { return i * i; }));
  for (int i = 0; i < 50; ++i) EXPECT_EQ(futures[static_cast<size_t>(i)].get(), i * i);
}

TEST(ThreadPool, ExceptionsLandInTheFuture) {
  ThreadPool pool(2);
  auto bad = pool.SubmitWithResult(
      []() -> int { throw std::runtime_error("task failed"); });
  auto good = pool.SubmitWithResult([] { return 7; });
  EXPECT_THROW(bad.get(), std::runtime_error);
  EXPECT_EQ(good.get(), 7);  // the worker survived the throwing task
}

TEST(ThreadPool, ShutdownIsIdempotentAndDrains) {
  ThreadPool pool(2);
  EXPECT_EQ(pool.num_threads(), 2u);
  std::atomic<int> count{0};
  for (int i = 0; i < 100; ++i) pool.Submit([&count] { count.fetch_add(1); });
  pool.Shutdown();
  pool.Shutdown();
  EXPECT_EQ(count.load(), 100);
  EXPECT_EQ(pool.QueueDepth(), 0u);
}

TEST(ThreadPool, ManyProducersOnePool) {
  ThreadPool pool(4);
  std::atomic<int> count{0};
  std::vector<std::thread> producers;
  for (int t = 0; t < 8; ++t) {
    producers.emplace_back([&pool, &count] {
      for (int i = 0; i < 200; ++i)
        pool.Submit([&count] { count.fetch_add(1); });
    });
  }
  for (auto& t : producers) t.join();
  pool.Shutdown();
  EXPECT_EQ(count.load(), 1600);
}

}  // namespace
}  // namespace subrec::par
