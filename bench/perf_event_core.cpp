// Event-core perf probe: the ledger anchor behind the
// `perf_event_core` section of BENCH_eval.json.
//
// Three measurements on the calendar-queue event core:
//
//   hold    the classic hold model (Vaucher & Duval): preload N events,
//           then H× {pop the minimum, push a successor at +Exp(1)} — the
//           steady-state access pattern of a running simulation. Reports
//           ops/sec and, critically, allocs_per_event: after preload the
//           arena recycles slots, so the hold phase must allocate
//           NOTHING (asserted by CI at 0.00).
//   flood   N pushes at t = 0 followed by a full drain — the paper's
//           all_at_start workloads, the calendar queue's degenerate case,
//           kept linear by the equal-timestamp tail-append fast path.
//   engine  an end-to-end sim::Engine run at cloud scale (default 1000
//           processors × 1,000,000 tasks under RR) reporting event
//           throughput and makespan — proof the rebuilt core carries the
//           federation-scale scenarios the fed/ layer composes.
//
// Plain binary (no Google Benchmark): it owns operator new for the
// allocation counting, and emits one machine-readable JSON line.

#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <new>
#include <stdexcept>
#include <string>

#include "exp/runner.hpp"
#include "exp/scenario.hpp"
#include "sim/engine.hpp"
#include "sim/event_queue.hpp"
#include "util/cli.hpp"
#include "util/rng.hpp"
#include "workload/generator.hpp"

namespace {

std::atomic<unsigned long long> g_allocs{0};

}  // namespace

// Counting hook: every heap allocation in the process bumps the counter.
void* operator new(std::size_t n) {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(n)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t n) {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(n)) return p;
  throw std::bad_alloc();
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace {

using namespace gasched;

struct Options {
  std::size_t events = 1'000'000;  ///< hold-model population / flood size
  std::size_t holds = 4'000'000;   ///< hold operations measured
  std::size_t tasks = 1'000'000;   ///< engine run workload
  std::size_t procs = 1000;        ///< engine run cluster size
  std::string scheduler = "RR";
  std::string label = "current";
};

Options parse(int argc, char** argv) {
  Options o;
  const util::Cli cli(argc, argv);
  try {
    cli.require_known({"events", "holds", "tasks", "procs", "scheduler", "label"});
    o.events = cli.get_size("events", o.events);
    o.holds = cli.get_size("holds", o.holds);
    o.tasks = cli.get_size("tasks", o.tasks);
    o.procs = cli.get_size("procs", o.procs);
    o.scheduler = cli.get("scheduler", o.scheduler);
    o.label = cli.get("label", o.label);
  } catch (const std::runtime_error& e) {
    std::fprintf(stderr, "perf_event_core: error: %s\n", e.what());
    std::exit(2);
  }
  if (!cli.positional().empty()) {
    std::fprintf(stderr,
                 "usage: perf_event_core [--events N] [--holds H] "
                 "[--tasks N] [--procs M] [--scheduler S] [--label L]\n");
    std::exit(2);
  }
  return o;
}

double seconds_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

/// Hold model: (ops/sec, allocs per hold operation). The preload draws
/// from Exp(1) — the equilibrium residual of the hold increments — so
/// the queue starts in the stationary regime the holds maintain.
std::pair<double, double> run_hold(const Options& o) {
  sim::CalendarQueue<std::uint64_t> q;
  q.reserve(o.events);
  util::Rng rng(11);
  for (std::size_t i = 0; i < o.events; ++i) {
    q.push(rng.exponential(1.0), i);
  }
  // Warm up one hold round so lazily-grown internals settle before the
  // allocation window opens.
  for (std::size_t i = 0; i < 10'000; ++i) {
    const double t = q.top_time();
    q.pop();
    q.push(t + rng.exponential(1.0), i);
  }
  const unsigned long long a0 = g_allocs.load(std::memory_order_relaxed);
  const auto t0 = std::chrono::steady_clock::now();
  for (std::size_t i = 0; i < o.holds; ++i) {
    const double t = q.top_time();
    q.pop();
    q.push(t + rng.exponential(1.0), i);
  }
  const double wall = seconds_since(t0);
  const unsigned long long a1 = g_allocs.load(std::memory_order_relaxed);
  return {static_cast<double>(o.holds) / wall,
          static_cast<double>(a1 - a0) / static_cast<double>(o.holds)};
}

/// Equal-timestamp flood: (pushes/sec, pops/sec).
std::pair<double, double> run_flood(const Options& o) {
  sim::CalendarQueue<std::uint64_t> q;
  q.reserve(o.events);
  const auto t0 = std::chrono::steady_clock::now();
  for (std::size_t i = 0; i < o.events; ++i) q.push(0.0, i);
  const double push_wall = seconds_since(t0);
  const auto t1 = std::chrono::steady_clock::now();
  while (!q.empty()) q.pop();
  const double pop_wall = seconds_since(t1);
  return {static_cast<double>(o.events) / push_wall,
          static_cast<double>(o.events) / pop_wall};
}

}  // namespace

int main(int argc, char** argv) {
  const Options o = parse(argc, argv);

  const auto [hold_ops_per_sec, allocs_per_event] = run_hold(o);
  const auto [flood_pushes_per_sec, flood_pops_per_sec] = run_flood(o);

  // End-to-end engine run at scale: the paper's all-at-start setting on a
  // cheap O(1)-per-task scheduler, so the event core (not the policy)
  // dominates.
  exp::Scenario s;
  s.name = "perf_event_core";
  s.cluster.num_processors = o.procs;
  s.cluster.comm.mean_cost = 1.0;
  s.workload.dist = "uniform";
  s.workload.param_a = 10.0;
  s.workload.param_b = 100.0;
  s.workload.count = o.tasks;
  s.seed = 20050404;
  const util::Rng base(s.seed);
  util::Rng workload_rng = base.split(0);
  util::Rng cluster_rng = base.split(1);
  util::Rng sim_rng = base.split(2);
  const auto dist = exp::make_distribution(s.workload);
  const workload::Workload wl =
      workload::generate(*dist, s.workload.count, workload_rng);
  const sim::Cluster cluster = sim::build_cluster(s.cluster, cluster_rng);
  const auto policy = exp::make_scheduler(o.scheduler);

  sim::Engine engine(cluster, wl, *policy, std::move(sim_rng));
  const auto t0 = std::chrono::steady_clock::now();
  const sim::SimulationResult r = engine.run();
  const double engine_wall = seconds_since(t0);
  const double events = static_cast<double>(engine.events_processed());

  std::printf(
      "{\"label\":\"%s\",\"events\":%zu,\"holds\":%zu,"
      "\"hold_ops_per_sec\":%.1f,\"allocs_per_event\":%.2f,"
      "\"flood_pushes_per_sec\":%.1f,\"flood_pops_per_sec\":%.1f,"
      "\"engine\":{\"procs\":%zu,\"tasks\":%zu,\"scheduler\":\"%s\","
      "\"events_processed\":%.0f,\"wall_seconds\":%.3f,"
      "\"events_per_sec\":%.1f,\"tasks_per_sec\":%.1f,"
      "\"tasks_completed\":%zu,\"makespan\":%.3f}}\n",
      o.label.c_str(), o.events, o.holds, hold_ops_per_sec, allocs_per_event,
      flood_pushes_per_sec, flood_pops_per_sec, o.procs, o.tasks,
      o.scheduler.c_str(), events, engine_wall, events / engine_wall,
      static_cast<double>(r.tasks_completed) / engine_wall,
      r.tasks_completed, r.makespan);
  return 0;
}
