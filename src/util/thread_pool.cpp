#include "util/thread_pool.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdlib>
#include <exception>
#include <string>

namespace gasched::util {

ThreadPool::ThreadPool(std::size_t threads) {
  if (threads == 0) {
    threads = std::max<std::size_t>(1, std::thread::hardware_concurrency());
  }
  workers_.reserve(threads);
  for (std::size_t i = 0; i < threads; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard lk(mu_);
    stopping_ = true;
  }
  cv_.notify_all();
  for (auto& w : workers_) w.join();
}

std::future<void> ThreadPool::submit(std::function<void()> fn) {
  Job job;
  job.fn = std::move(fn);
  std::future<void> fut = job.done.get_future();
  {
    std::lock_guard lk(mu_);
    jobs_.push(std::move(job));
  }
  cv_.notify_one();
  return fut;
}

bool ThreadPool::try_run_one() {
  Job job;
  {
    std::lock_guard lk(mu_);
    if (jobs_.empty()) return false;
    job = std::move(jobs_.front());
    jobs_.pop();
  }
  try {
    job.fn();
    job.done.set_value();
  } catch (...) {
    job.done.set_exception(std::current_exception());
  }
  return true;
}

void ThreadPool::worker_loop() {
  for (;;) {
    Job job;
    {
      std::unique_lock lk(mu_);
      cv_.wait(lk, [this] { return stopping_ || !jobs_.empty(); });
      if (jobs_.empty()) return;  // stopping_ with drained queue
      job = std::move(jobs_.front());
      jobs_.pop();
    }
    try {
      job.fn();
      job.done.set_value();
    } catch (...) {
      job.done.set_exception(std::current_exception());
    }
  }
}

void ThreadPool::parallel_for(std::size_t begin, std::size_t end,
                              const std::function<void(std::size_t)>& fn) {
  if (begin >= end) return;
  const std::size_t n = end - begin;
  if (n == 1) {
    fn(begin);
    return;
  }
  std::atomic<std::size_t> next{begin};
  std::exception_ptr first_error;
  std::mutex err_mu;
  auto drain = [&] {
    for (;;) {
      const std::size_t i = next.fetch_add(1, std::memory_order_relaxed);
      if (i >= end) return;
      try {
        fn(i);
      } catch (...) {
        std::lock_guard lk(err_mu);
        if (!first_error) first_error = std::current_exception();
      }
    }
  };
  const std::size_t lanes = std::min(n, size() + 1);
  std::vector<std::future<void>> futs;
  futs.reserve(lanes);
  // The calling thread participates too, so a pool of size 1 still makes
  // progress even when parallel_for is invoked from a pool worker.
  for (std::size_t i = 1; i < lanes; ++i) futs.push_back(submit(drain));
  drain();
  // Help-first wait: a worker blocked here would starve jobs submitted by
  // nested parallel_for calls (every worker waiting on queued jobs that
  // only workers can run). Executing queued jobs while waiting makes the
  // nesting deadlock-free — the helpers we are waiting on are no-ops once
  // the shared counter is exhausted, so this terminates.
  for (auto& f : futs) {
    while (f.wait_for(std::chrono::seconds(0)) !=
           std::future_status::ready) {
      if (!try_run_one()) {
        f.wait_for(std::chrono::milliseconds(1));
      }
    }
    f.get();
  }
  if (first_error) std::rethrow_exception(first_error);
}

ThreadPool& global_pool() {
  // GASCHED_THREADS pins the pool width (sweep determinism does not
  // depend on it, but wall-clock comparisons and CI sanitizer runs do).
  static ThreadPool pool([] {
    const char* env = std::getenv("GASCHED_THREADS");
    if (env != nullptr && *env != '\0') {
      const long v = std::strtol(env, nullptr, 10);
      if (v > 0) return static_cast<std::size_t>(v);
    }
    return std::size_t{0};
  }());
  return pool;
}

void for_each_index(std::size_t n, bool parallel,
                    const std::function<void(std::size_t)>& fn) {
  if (parallel && n > 1) {
    global_pool().parallel_for(0, n, fn);
  } else {
    for (std::size_t i = 0; i < n; ++i) fn(i);
  }
}

}  // namespace gasched::util
