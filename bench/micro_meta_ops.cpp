// Microbenchmarks (google-benchmark) for the local-search and bounds hot
// paths: LoadTracker move pricing and application, one SA temperature
// sweep, the makespan lower bound at scale, and the exact
// branch-and-bound solver on tiny instances.

#include <benchmark/benchmark.h>

#include <cmath>

#include "core/fitness.hpp"
#include "core/init.hpp"
#include "meta/assignment.hpp"
#include "metrics/bounds.hpp"

namespace {

using namespace gasched;

struct MetaFixture {
  std::size_t tasks;
  std::size_t procs;
  core::ScheduleEvaluator eval;
  core::FlatSchedule initial;

  static sim::SystemView view_for(std::size_t procs, util::Rng& rng) {
    sim::SystemView v;
    v.procs.resize(procs);
    for (std::size_t j = 0; j < procs; ++j) {
      v.procs[j].id = static_cast<sim::ProcId>(j);
      v.procs[j].rate = rng.uniform(10.0, 100.0);
      v.procs[j].comm_estimate = rng.uniform(1.0, 20.0);
      v.procs[j].comm_observations = 1;
    }
    return v;
  }

  MetaFixture(std::size_t tasks_, std::size_t procs_)
      : tasks(tasks_),
        procs(procs_),
        eval([&] {
          util::Rng rng(1);
          std::vector<double> sizes(tasks_);
          for (auto& s : sizes) s = rng.uniform(10.0, 1000.0);
          auto view = view_for(procs_, rng);
          return core::ScheduleEvaluator(std::move(sizes), view, true);
        }()),
        initial([&] {
          util::Rng rng(2);
          core::FlatSchedule schedule;
          core::list_schedule(eval, 0.5, rng, schedule);
          return schedule;
        }()) {}
};

void BM_LoadTrackerResetFlat(benchmark::State& state) {
  // The restart path of the local searchers: re-initialise an existing
  // tracker from a flat schedule, reusing its buffers (no allocation).
  const MetaFixture f(static_cast<std::size_t>(state.range(0)), 50);
  meta::LoadTracker t(f.eval, f.initial);
  for (auto _ : state) {
    t.reset(f.eval, f.initial);
    benchmark::DoNotOptimize(t.makespan());
  }
}
BENCHMARK(BM_LoadTrackerResetFlat)->Arg(200)->Arg(1000);

void BM_LoadTrackerDelta(benchmark::State& state) {
  const MetaFixture f(static_cast<std::size_t>(state.range(0)), 50);
  meta::LoadTracker t(f.eval, f.initial);
  util::Rng rng(3);
  for (auto _ : state) {
    const meta::Move m = t.random_move(rng);
    benchmark::DoNotOptimize(t.makespan_delta(m));
  }
}
BENCHMARK(BM_LoadTrackerDelta)->Arg(200)->Arg(1000);

void BM_LoadTrackerApply(benchmark::State& state) {
  const MetaFixture f(static_cast<std::size_t>(state.range(0)), 50);
  meta::LoadTracker t(f.eval, f.initial);
  util::Rng rng(4);
  for (auto _ : state) {
    t.apply(t.random_move(rng));
    benchmark::DoNotOptimize(t.completion(0));
  }
}
BENCHMARK(BM_LoadTrackerApply)->Arg(200)->Arg(1000);

void BM_LoadTrackerMakespanQuery(benchmark::State& state) {
  // makespan()/heaviest_proc() are served from the maintained top-2 state
  // (O(1)); interleave applies so the bench exercises the maintenance,
  // not a cached scalar read.
  const MetaFixture f(static_cast<std::size_t>(state.range(0)), 50);
  meta::LoadTracker t(f.eval, f.initial);
  util::Rng rng(9);
  for (auto _ : state) {
    t.apply(t.random_move(rng));
    benchmark::DoNotOptimize(t.makespan());
    benchmark::DoNotOptimize(t.heaviest_proc());
  }
}
BENCHMARK(BM_LoadTrackerMakespanQuery)->Arg(200)->Arg(1000);

void BM_SaSweep(benchmark::State& state) {
  // One annealing sweep: N accept/reject decisions at a fixed temperature.
  const MetaFixture f(static_cast<std::size_t>(state.range(0)), 50);
  util::Rng rng(5);
  for (auto _ : state) {
    meta::LoadTracker t(f.eval, f.initial);
    const double temperature = 10.0;
    for (std::size_t i = 0; i < f.tasks; ++i) {
      const meta::Move m = t.random_move(rng);
      const double d = t.makespan_delta(m);
      if (d <= 0.0 || rng.uniform01() < std::exp(-d / temperature)) {
        t.apply(m);
      }
    }
    benchmark::DoNotOptimize(t.makespan());
  }
}
BENCHMARK(BM_SaSweep)->Arg(200);

void BM_LowerBound(benchmark::State& state) {
  util::Rng rng(6);
  metrics::BoundInstance inst;
  const auto N = static_cast<std::size_t>(state.range(0));
  for (std::size_t j = 0; j < 50; ++j) {
    inst.rates.push_back(rng.uniform(10.0, 100.0));
    inst.comm_costs.push_back(rng.uniform(0.1, 2.0));
  }
  for (std::size_t i = 0; i < N; ++i) {
    inst.task_sizes.push_back(rng.uniform(10.0, 1000.0));
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(metrics::makespan_lower_bound(inst));
  }
}
BENCHMARK(BM_LowerBound)->Arg(1000)->Arg(10000);

void BM_ExactSolver(benchmark::State& state) {
  util::Rng rng(7);
  metrics::BoundInstance inst;
  for (std::size_t j = 0; j < 3; ++j) {
    inst.rates.push_back(rng.uniform(10.0, 60.0));
    inst.comm_costs.push_back(rng.uniform(0.1, 1.5));
  }
  const auto N = static_cast<std::size_t>(state.range(0));
  for (std::size_t i = 0; i < N; ++i) {
    inst.task_sizes.push_back(rng.uniform(20.0, 400.0));
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(metrics::optimal_makespan_exact(inst));
  }
}
BENCHMARK(BM_ExactSolver)->Arg(8)->Arg(10)->Arg(12);

}  // namespace

BENCHMARK_MAIN();
