// Microbenchmarks (google-benchmark) for the hot operations of the GA
// scheduler: decode, fitness evaluation, crossover, mutation, rebalance,
// selection, list-scheduling init, and the event engine itself.

#include <benchmark/benchmark.h>

#include "core/fitness.hpp"
#include "core/init.hpp"
#include "core/rebalance.hpp"
#include "exp/runner.hpp"
#include "ga/crossover.hpp"
#include "ga/mutation.hpp"
#include "ga/selection.hpp"
#include "sim/linpack.hpp"

namespace {

using namespace gasched;

struct BatchFixture {
  std::size_t tasks;
  std::size_t procs;
  core::ScheduleCodec codec;
  core::ScheduleEvaluator eval;
  ga::Chromosome chromosome;

  static sim::SystemView view_for(std::size_t procs, util::Rng& rng) {
    sim::SystemView v;
    v.procs.resize(procs);
    for (std::size_t j = 0; j < procs; ++j) {
      v.procs[j].id = static_cast<sim::ProcId>(j);
      v.procs[j].rate = rng.uniform(10.0, 100.0);
      v.procs[j].comm_estimate = rng.uniform(1.0, 50.0);
    }
    return v;
  }

  static std::vector<double> sizes_for(std::size_t tasks, util::Rng& rng) {
    std::vector<double> s(tasks);
    for (auto& v : s) v = rng.uniform(10.0, 1000.0);
    return s;
  }

  explicit BatchFixture(std::size_t tasks_, std::size_t procs_)
      : tasks(tasks_),
        procs(procs_),
        codec(tasks_, procs_),
        eval([&] {
          util::Rng rng(1);
          auto sizes = sizes_for(tasks_, rng);
          auto view = view_for(procs_, rng);
          return core::ScheduleEvaluator(std::move(sizes), view, true);
        }()),
        chromosome([&] {
          util::Rng rng(2);
          core::FlatSchedule schedule;
          core::list_schedule(eval, 0.5, rng, schedule);
          return codec.encode(schedule);
        }()) {}
};

void BM_FlatDecode(benchmark::State& state) {
  // The zero-allocation decode path: reused FlatSchedule workspace.
  BatchFixture f(static_cast<std::size_t>(state.range(0)), 50);
  core::FlatSchedule flat;
  for (auto _ : state) {
    f.codec.decode_into(f.chromosome, flat);
    benchmark::DoNotOptimize(flat.num_slots());
  }
}
BENCHMARK(BM_FlatDecode)->Arg(50)->Arg(200)->Arg(1000);

void BM_FitnessEval(benchmark::State& state) {
  // Stateless reference pricing of a decoded schedule.
  BatchFixture f(static_cast<std::size_t>(state.range(0)), 50);
  core::FlatSchedule flat;
  f.codec.decode_into(f.chromosome, flat);
  for (auto _ : state) {
    benchmark::DoNotOptimize(f.eval.evaluate(flat));
  }
}
BENCHMARK(BM_FitnessEval)->Arg(50)->Arg(200)->Arg(1000);

void BM_FitnessFromChromosome(benchmark::State& state) {
  BatchFixture f(static_cast<std::size_t>(state.range(0)), 50);
  const core::ScheduleProblem problem(f.codec, f.eval);
  for (auto _ : state) {
    benchmark::DoNotOptimize(problem.fitness(f.chromosome));
  }
}
BENCHMARK(BM_FitnessFromChromosome)->Arg(200);

void BM_EvaluateWorkspaceHit(benchmark::State& state) {
  // Combined fitness+objective through the reused workspace on one
  // chromosome: after the first call every evaluation is a pricing-memo
  // hit (a hash and a full compare of the schedule form).
  BatchFixture f(static_cast<std::size_t>(state.range(0)), 50);
  const core::ScheduleProblem problem(f.codec, f.eval);
  const auto ws = problem.make_workspace();
  for (auto _ : state) {
    benchmark::DoNotOptimize(problem.evaluate(f.chromosome, ws.get()));
  }
}
BENCHMARK(BM_EvaluateWorkspaceHit)->Arg(50)->Arg(200)->Arg(1000);

void BM_EvaluateWorkspaceMiss(benchmark::State& state) {
  // Cycles through kCapacity + 1 distinct schedules of the same shape
  // (the fixture's task genes rotated by k places), so the LRU memo never
  // holds the next one: every evaluation is a miss — hash, fused decode +
  // full pricing, and an entry insert.
  BatchFixture f(static_cast<std::size_t>(state.range(0)), 50);
  const core::ScheduleProblem problem(f.codec, f.eval);
  const auto ws = problem.make_workspace();
  std::vector<std::size_t> task_pos;
  for (std::size_t i = 0; i < f.chromosome.size(); ++i) {
    if (!core::ScheduleCodec::is_delimiter(f.chromosome[i])) {
      task_pos.push_back(i);
    }
  }
  std::vector<ga::Chromosome> pool;
  for (std::size_t k = 0; k <= core::PricingMemo::kCapacity; ++k) {
    ga::Chromosome c = f.chromosome;
    for (std::size_t j = 0; j < task_pos.size(); ++j) {
      c[task_pos[j]] = f.chromosome[task_pos[(j + k) % task_pos.size()]];
    }
    pool.push_back(std::move(c));
  }
  std::size_t next = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(problem.evaluate(pool[next], ws.get()));
    next = next + 1 == pool.size() ? 0 : next + 1;
  }
}
BENCHMARK(BM_EvaluateWorkspaceMiss)->Arg(50)->Arg(200)->Arg(1000);

void BM_CompletionTimeKernel(benchmark::State& state) {
  // Canonical left-to-right queue pricing (table-served costs) of every
  // queue of a decoded schedule on 8 processors.
  BatchFixture f(static_cast<std::size_t>(state.range(0)), 8);
  core::FlatSchedule flat;
  f.codec.decode_into(f.chromosome, flat);
  const std::size_t procs = flat.num_procs();
  for (auto _ : state) {
    double acc = 0.0;
    for (std::size_t j = 0; j < procs; ++j) {
      acc += f.eval.completion_time(j, flat.queue(j));
    }
    benchmark::DoNotOptimize(acc);
  }
}
BENCHMARK(BM_CompletionTimeKernel)->Arg(200)->Arg(1000);

void BM_CycleCrossover(benchmark::State& state) {
  BatchFixture f(static_cast<std::size_t>(state.range(0)), 50);
  util::Rng rng(3);
  ga::Chromosome other = f.chromosome;
  rng.shuffle(other);
  const ga::CycleCrossover cx;
  for (auto _ : state) {
    benchmark::DoNotOptimize(cx.apply(f.chromosome, other, rng));
  }
}
BENCHMARK(BM_CycleCrossover)->Arg(200)->Arg(1000);

void BM_PmxCrossover(benchmark::State& state) {
  BatchFixture f(static_cast<std::size_t>(state.range(0)), 50);
  util::Rng rng(4);
  ga::Chromosome other = f.chromosome;
  rng.shuffle(other);
  const ga::PmxCrossover pmx;
  for (auto _ : state) {
    benchmark::DoNotOptimize(pmx.apply(f.chromosome, other, rng));
  }
}
BENCHMARK(BM_PmxCrossover)->Arg(200);

void BM_SwapMutation(benchmark::State& state) {
  BatchFixture f(200, 50);
  util::Rng rng(5);
  const ga::SwapMutation mut;
  ga::Chromosome c = f.chromosome;
  for (auto _ : state) {
    mut.apply(c, rng);
    benchmark::DoNotOptimize(c.data());
  }
}
BENCHMARK(BM_SwapMutation);

void BM_Rebalance(benchmark::State& state) {
  // One re-balance pass per iteration through one workspace, as the GA
  // engine runs it: after the first pass the chromosome is a pricing-memo
  // hit, and an accepted swap rekeys its entry.
  BatchFixture f(200, 50);
  util::Rng rng(6);
  ga::Chromosome c = f.chromosome;
  core::EvalWorkspace ws;
  for (auto _ : state) {
    core::rebalance_once(c, f.codec, f.eval, rng, 5, ws);
    benchmark::DoNotOptimize(c.data());
  }
}
BENCHMARK(BM_Rebalance);

void BM_RouletteSelect(benchmark::State& state) {
  util::Rng rng(7);
  std::vector<double> fitness(20);
  for (auto& v : fitness) v = rng.uniform01();
  const ga::RouletteSelection sel;
  for (auto _ : state) {
    benchmark::DoNotOptimize(sel.select(fitness, 20, rng));
  }
}
BENCHMARK(BM_RouletteSelect);

void BM_RouletteSelectInto(benchmark::State& state) {
  // The engine's allocation-free selection path (reused output buffer).
  util::Rng rng(7);
  std::vector<double> fitness(20);
  for (auto& v : fitness) v = rng.uniform01();
  const ga::RouletteSelection sel;
  std::vector<std::size_t> out;
  for (auto _ : state) {
    sel.select_into(fitness, 20, rng, out);
    benchmark::DoNotOptimize(out.data());
  }
}
BENCHMARK(BM_RouletteSelectInto);

void BM_PositionIndexBuild(benchmark::State& state) {
  // Regression micro-check for the dense position index that replaced the
  // per-pair unordered_map: building over a schedule chromosome must stay
  // O(length) with no steady-state allocation.
  BatchFixture f(static_cast<std::size_t>(state.range(0)), 50);
  ga::PositionIndex idx;
  for (auto _ : state) {
    idx.build(f.chromosome);
    benchmark::DoNotOptimize(idx.find(f.chromosome.front()));
  }
}
BENCHMARK(BM_PositionIndexBuild)->Arg(200)->Arg(1000);

void BM_GaGeneration(benchmark::State& state) {
  // End-to-end generation throughput on the paper's micro-GA config (the
  // BENCH_eval.json anchor, inline): iterations/sec == generations/sec.
  BatchFixture f(static_cast<std::size_t>(state.range(0)), 50);
  const core::ScheduleProblem problem(f.codec, f.eval);
  static const ga::RouletteSelection sel;
  static const ga::CycleCrossover cx;
  static const ga::SwapMutation mut;
  util::Rng init_rng(11);
  const auto init =
      core::initial_population(f.codec, f.eval, 20, 0.5, init_rng);
  util::Rng ga_rng(12);
  const std::size_t chunk = 32;
  ga::GaConfig cfg;
  cfg.population = 20;
  cfg.max_generations = chunk;
  cfg.improvement_passes = 1;
  const ga::GaEngine engine(cfg, sel, cx, mut);
  while (state.KeepRunningBatch(static_cast<benchmark::IterationCount>(chunk))) {
    auto pop = init;
    benchmark::DoNotOptimize(engine.run(problem, std::move(pop), ga_rng));
  }
}
BENCHMARK(BM_GaGeneration)->Arg(200);

void BM_ListScheduleInit(benchmark::State& state) {
  BatchFixture f(static_cast<std::size_t>(state.range(0)), 50);
  util::Rng rng(8);
  core::FlatSchedule schedule;
  for (auto _ : state) {
    core::list_schedule(f.eval, 0.5, rng, schedule);
    benchmark::DoNotOptimize(schedule.num_slots());
  }
}
BENCHMARK(BM_ListScheduleInit)->Arg(200);

void BM_FullSimulationEF(benchmark::State& state) {
  exp::Scenario s;
  s.cluster = exp::paper_cluster(10.0, 20);
  s.workload.dist = "uniform";
  s.workload.param_a = 10.0;
  s.workload.param_b = 1000.0;
  s.workload.count = static_cast<std::size_t>(state.range(0));
  s.seed = 9;
  exp::SchedulerParams opts;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        exp::run_one(s, "EF", opts, 0));
  }
}
BENCHMARK(BM_FullSimulationEF)->Arg(200)->Arg(1000);

void BM_Linpack(benchmark::State& state) {
  util::Rng rng(10);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        sim::linpack_benchmark(static_cast<std::size_t>(state.range(0)),
                               rng));
  }
}
BENCHMARK(BM_Linpack)->Arg(64)->Arg(128);

}  // namespace

BENCHMARK_MAIN();
