#pragma once
// Fixed-size thread pool used to run independent experiment work —
// sweep cells and the replications inside them — in parallel.
// Determinism is preserved by seeding each replication from its index,
// never from thread identity or scheduling order.
//
// Nested use is supported: parallel_for may be called from inside a pool
// worker (the sweep executor parallelises cells, and each cell's
// replications call parallel_for again). Waiters never block idle —
// they execute queued jobs while waiting (help-first scheduling), so a
// full pool of blocked outer loops cannot deadlock the inner ones.

#include <condition_variable>
#include <cstddef>
#include <functional>
#include <future>
#include <mutex>
#include <queue>
#include <thread>
#include <vector>

namespace gasched::util {

/// A simple work-queue thread pool.
///
/// Tasks are arbitrary `void()` callables; `submit` returns a future for
/// completion/exception propagation. `parallel_for` provides a blocked
/// index-range helper for embarrassingly parallel sweeps.
class ThreadPool {
 public:
  /// Starts `threads` workers (defaults to hardware concurrency, min 1).
  explicit ThreadPool(std::size_t threads = 0);

  /// Drains the queue and joins all workers.
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Number of worker threads.
  std::size_t size() const noexcept { return workers_.size(); }

  /// Enqueues `fn`; the returned future resolves when it completes and
  /// rethrows any exception it raised.
  std::future<void> submit(std::function<void()> fn);

  /// Runs fn(i) for every i in [begin, end) across the pool and blocks
  /// until all iterations complete. Exceptions from iterations are
  /// rethrown (first one wins). Safe to call from a pool worker: the
  /// calling thread drains iterations itself and, while waiting for
  /// helpers, keeps executing other queued jobs instead of blocking.
  void parallel_for(std::size_t begin, std::size_t end,
                    const std::function<void(std::size_t)>& fn);

  /// Pops and runs one queued job on the calling thread, if any is
  /// pending. Returns false when the queue was empty. This is what lets
  /// blocked waiters help instead of deadlocking nested submissions.
  bool try_run_one();

 private:
  struct Job {
    std::function<void()> fn;
    std::promise<void> done;
  };

  void worker_loop();

  std::vector<std::thread> workers_;
  std::queue<Job> jobs_;
  std::mutex mu_;
  std::condition_variable cv_;
  bool stopping_ = false;
};

/// Global pool shared by the experiment harness (lazily constructed,
/// global_pool_width() threads).
ThreadPool& global_pool();

/// The width the GASCHED_THREADS variable pins global_pool() to: a count,
/// with unset, empty or 0 meaning one thread per hardware thread. Throws
/// std::runtime_error naming GASCHED_THREADS on any other text ("3x",
/// "-1"). Reads the variable only; builds no pool.
std::size_t global_pool_width();

/// Runs fn(i) for every i in [0, n): on global_pool() when `parallel`
/// and n > 1, otherwise in index order on the calling thread. The one
/// way the harness fans out replications, cells and instances; callers
/// write results by index, so the output does not depend on which path
/// ran. Exceptions propagate as from ThreadPool::parallel_for.
void for_each_index(std::size_t n, bool parallel,
                    const std::function<void(std::size_t)>& fn);

}  // namespace gasched::util
