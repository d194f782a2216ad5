// Tests for the thread pool: completion, exception propagation,
// parallel_for coverage/determinism properties, and for_each_index's
// serial and pooled paths.

#include "util/thread_pool.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <numeric>
#include <optional>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

namespace gasched::util {
namespace {

TEST(ThreadPool, RunsSubmittedTasks) {
  ThreadPool pool(4);
  std::atomic<int> counter{0};
  std::vector<std::future<void>> futs;
  for (int i = 0; i < 100; ++i) {
    futs.push_back(pool.submit([&] { counter.fetch_add(1); }));
  }
  for (auto& f : futs) f.get();
  EXPECT_EQ(counter.load(), 100);
}

TEST(ThreadPool, PropagatesExceptionsThroughFuture) {
  ThreadPool pool(2);
  auto fut = pool.submit([] { throw std::runtime_error("boom"); });
  EXPECT_THROW(fut.get(), std::runtime_error);
}

TEST(ThreadPool, SizeMatchesRequested) {
  ThreadPool pool(3);
  EXPECT_EQ(pool.size(), 3u);
}

TEST(ThreadPool, DefaultSizeIsPositive) {
  ThreadPool pool;
  EXPECT_GE(pool.size(), 1u);
}

TEST(ParallelFor, CoversEveryIndexExactlyOnce) {
  ThreadPool pool(8);
  const std::size_t n = 10000;
  std::vector<std::atomic<int>> hits(n);
  pool.parallel_for(0, n, [&](std::size_t i) { hits[i].fetch_add(1); });
  for (std::size_t i = 0; i < n; ++i) {
    ASSERT_EQ(hits[i].load(), 1) << "index " << i;
  }
}

TEST(ParallelFor, EmptyRangeIsNoop) {
  ThreadPool pool(2);
  bool ran = false;
  pool.parallel_for(5, 5, [&](std::size_t) { ran = true; });
  EXPECT_FALSE(ran);
}

TEST(ParallelFor, SingleIterationRunsInline) {
  ThreadPool pool(2);
  int count = 0;
  pool.parallel_for(3, 4, [&](std::size_t i) {
    EXPECT_EQ(i, 3u);
    ++count;
  });
  EXPECT_EQ(count, 1);
}

TEST(ParallelFor, NonZeroBeginRespected) {
  ThreadPool pool(4);
  std::atomic<std::size_t> sum{0};
  pool.parallel_for(10, 20, [&](std::size_t i) { sum.fetch_add(i); });
  EXPECT_EQ(sum.load(), std::size_t{145});  // 10+11+...+19
}

TEST(ParallelFor, PropagatesFirstException) {
  ThreadPool pool(4);
  EXPECT_THROW(pool.parallel_for(0, 100,
                                 [&](std::size_t i) {
                                   if (i == 42) {
                                     throw std::runtime_error("iter failed");
                                   }
                                 }),
               std::runtime_error);
}

TEST(ParallelFor, ResultsIndependentOfThreadCount) {
  // The same deterministic per-index computation must produce identical
  // output regardless of pool width (HPC reproducibility requirement).
  const std::size_t n = 500;
  auto compute = [](std::size_t i) {
    double acc = 0.0;
    for (std::size_t k = 0; k < 100; ++k) {
      acc += static_cast<double>(i * k % 17);
    }
    return acc;
  };
  std::vector<double> serial(n), wide(n);
  ThreadPool one(1), many(8);
  one.parallel_for(0, n, [&](std::size_t i) { serial[i] = compute(i); });
  many.parallel_for(0, n, [&](std::size_t i) { wide[i] = compute(i); });
  EXPECT_EQ(serial, wide);
}

TEST(ParallelFor, NestedFromPoolWorkerDoesNotDeadlock) {
  // The sweep executor parallelises cells on the pool and each cell's
  // replications call parallel_for again from a worker thread. Before
  // help-first waiting this deadlocked as soon as every worker blocked
  // in an outer wait; now waiters execute queued jobs instead.
  ThreadPool pool(4);
  const std::size_t outer = 8, inner = 64;
  std::vector<std::vector<std::atomic<int>>> hits(outer);
  for (auto& row : hits) {
    row = std::vector<std::atomic<int>>(inner);
  }
  pool.parallel_for(0, outer, [&](std::size_t i) {
    pool.parallel_for(0, inner,
                      [&](std::size_t j) { hits[i][j].fetch_add(1); });
  });
  for (std::size_t i = 0; i < outer; ++i) {
    for (std::size_t j = 0; j < inner; ++j) {
      ASSERT_EQ(hits[i][j].load(), 1) << i << "," << j;
    }
  }
}

TEST(ParallelFor, NestedOnSingleThreadPoolStillCompletes) {
  // With one worker the calling thread drains everything itself; nested
  // calls must still terminate (the submitted helpers become no-ops).
  ThreadPool pool(1);
  std::atomic<int> count{0};
  pool.parallel_for(0, 4, [&](std::size_t) {
    pool.parallel_for(0, 16, [&](std::size_t) { count.fetch_add(1); });
  });
  EXPECT_EQ(count.load(), 64);
}

TEST(ParallelFor, TriplyNestedCoversEveryIndex) {
  ThreadPool pool(3);
  std::atomic<int> count{0};
  pool.parallel_for(0, 3, [&](std::size_t) {
    pool.parallel_for(0, 4, [&](std::size_t) {
      pool.parallel_for(0, 5, [&](std::size_t) { count.fetch_add(1); });
    });
  });
  EXPECT_EQ(count.load(), 3 * 4 * 5);
}

TEST(ParallelFor, NestedExceptionPropagatesToOuterCaller) {
  ThreadPool pool(4);
  EXPECT_THROW(
      pool.parallel_for(0, 4,
                        [&](std::size_t i) {
                          pool.parallel_for(0, 8, [&](std::size_t j) {
                            if (i == 2 && j == 3) {
                              throw std::runtime_error("inner failed");
                            }
                          });
                        }),
      std::runtime_error);
}

TEST(ThreadPool, TryRunOneDrainsQueuedJobs) {
  // A pool whose single worker is parked can still make progress through
  // a helping caller.
  ThreadPool pool(1);
  std::atomic<bool> started{false};
  std::atomic<bool> release{false};
  auto blocker = pool.submit([&] {
    started.store(true);
    while (!release.load()) {
      std::this_thread::yield();
    }
  });
  // Wait until the worker holds the blocker so try_run_one below cannot
  // pick it up (and spin on a flag only this thread sets).
  while (!started.load()) {
    std::this_thread::yield();
  }
  std::atomic<int> ran{0};
  auto queued = pool.submit([&] { ran.fetch_add(1); });
  EXPECT_TRUE(pool.try_run_one());  // runs the queued job inline
  EXPECT_EQ(ran.load(), 1);
  EXPECT_FALSE(pool.try_run_one());  // queue empty now
  release.store(true);
  blocker.get();
  queued.get();
}

TEST(GlobalPool, IsSingleton) {
  EXPECT_EQ(&global_pool(), &global_pool());
  EXPECT_GE(global_pool().size(), 1u);
}

/// Sets GASCHED_THREADS for one scope, restoring the previous value.
class ThreadsEnv {
 public:
  explicit ThreadsEnv(const char* value) {
    if (const char* old = std::getenv("GASCHED_THREADS")) old_ = old;
    ::setenv("GASCHED_THREADS", value, 1);
  }
  ~ThreadsEnv() {
    if (old_) {
      ::setenv("GASCHED_THREADS", old_->c_str(), 1);
    } else {
      ::unsetenv("GASCHED_THREADS");
    }
  }

 private:
  std::optional<std::string> old_;
};

TEST(GlobalPoolWidth, ReadsGaschedThreadsAsACount) {
  // Reads the variable only; no pool is built at any of these widths.
  {
    const ThreadsEnv env("3");
    EXPECT_EQ(global_pool_width(), 3u);
  }
  {
    const ThreadsEnv env("0");
    EXPECT_EQ(global_pool_width(), 0u);
  }
  {
    const ThreadsEnv env("");
    EXPECT_EQ(global_pool_width(), 0u);
  }
}

TEST(GlobalPoolWidth, MalformedValueThrowsNamingTheVariable) {
  // "3x" used to read as 3 and "-1" as the default width.
  for (const char* bad : {"3x", "-1", "two", "+2"}) {
    const ThreadsEnv env(bad);
    try {
      (void)global_pool_width();
      ADD_FAILURE() << "GASCHED_THREADS=" << bad << " was accepted";
    } catch (const std::runtime_error& e) {
      EXPECT_NE(std::string(e.what()).find("GASCHED_THREADS"),
                std::string::npos)
          << e.what();
    }
  }
}

TEST(ForEachIndex, SerialPathVisitsInOrderOnTheCallersThread) {
  // parallel = false, and a single index even when parallel: both run
  // inline, in index order.
  for (const auto& [n, parallel] :
       {std::pair<std::size_t, bool>{6, false}, {1, true}, {0, true}}) {
    std::vector<std::size_t> order;
    std::vector<std::thread::id> threads;
    for_each_index(n, parallel, [&](std::size_t i) {
      order.push_back(i);
      threads.push_back(std::this_thread::get_id());
    });
    std::vector<std::size_t> expect(n);
    std::iota(expect.begin(), expect.end(), 0);
    EXPECT_EQ(order, expect);
    for (const auto& id : threads) EXPECT_EQ(id, std::this_thread::get_id());
  }
}

TEST(ForEachIndex, ParallelPathVisitsEveryIndexExactlyOnce) {
  const std::size_t n = 500;
  std::vector<std::atomic<int>> hits(n);
  for_each_index(n, true, [&](std::size_t i) { hits[i].fetch_add(1); });
  for (std::size_t i = 0; i < n; ++i) EXPECT_EQ(hits[i].load(), 1) << i;
}

TEST(ForEachIndex, FirstExceptionPropagates) {
  for (const bool parallel : {false, true}) {
    std::atomic<int> ran{0};
    try {
      for_each_index(16, parallel, [&](std::size_t i) {
        ran.fetch_add(1);
        if (i == 3) throw std::runtime_error("index 3");
      });
      ADD_FAILURE() << "no exception, parallel=" << parallel;
    } catch (const std::runtime_error& e) {
      EXPECT_STREQ(e.what(), "index 3");
    }
    // The serial path stops at the throwing index.
    if (!parallel) EXPECT_EQ(ran.load(), 4);
  }
}

TEST(ForEachIndex, NestedCallFromAPoolJobCompletes) {
  std::atomic<int> count{0};
  global_pool()
      .submit([&] {
        for_each_index(4, true, [&](std::size_t) {
          for_each_index(8, true, [&](std::size_t) { count.fetch_add(1); });
        });
      })
      .get();
  EXPECT_EQ(count.load(), 32);
}

}  // namespace
}  // namespace gasched::util
