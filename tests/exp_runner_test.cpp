// Tests for the experiment harness: registry-backed scheduler factory,
// scenario realisation, replication determinism, and the same-workload
// guarantee.

#include "exp/runner.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>

#include "core/fitness.hpp"
#include "core/init.hpp"
#include "exp/registry.hpp"
#include "exp/sweep.hpp"
#include "util/thread_pool.hpp"

namespace gasched::exp {
namespace {

Scenario small_scenario() {
  Scenario s;
  s.name = "test";
  s.cluster = paper_cluster(/*mean_comm_cost=*/10.0, /*processors=*/6);
  s.workload.dist = "uniform";
  s.workload.param_a = 10.0;
  s.workload.param_b = 100.0;
  s.workload.count = 120;
  s.seed = 7;
  s.replications = 3;
  return s;
}

SchedulerParams quick_opts() {
  SchedulerParams o;
  o.set("batch_size", 40);
  o.set("max_generations", 40);
  o.set("population", 10);
  return o;
}

TEST(SchedulerFactory, AllSevenConstructibleWithPaperNames) {
  for (const auto& name : all_schedulers()) {
    const auto policy = make_scheduler(name, quick_opts());
    ASSERT_NE(policy, nullptr);
    EXPECT_EQ(policy->name(), name);
  }
}

TEST(SchedulerFactory, OrderMatchesPaperBarCharts) {
  const auto all = all_schedulers();
  ASSERT_EQ(all.size(), 7u);
  EXPECT_EQ(all[0], "EF");
  EXPECT_EQ(all[1], "LL");
  EXPECT_EQ(all[2], "RR");
  EXPECT_EQ(all[3], "ZO");
  EXPECT_EQ(all[4], "PN");
  EXPECT_EQ(all[5], "MM");
  EXPECT_EQ(all[6], "MX");
}

TEST(Distributions, FactoryMatchesSpec) {
  WorkloadSpec spec;
  spec.count = 10;
  spec.dist = "normal";
  spec.param_a = 1000.0;
  spec.param_b = 9e5;
  EXPECT_EQ(make_distribution(spec)->name(), "normal");
  spec.dist = "uniform";
  spec.param_a = 10.0;
  spec.param_b = 100.0;
  EXPECT_EQ(make_distribution(spec)->name(), "uniform");
  spec.dist = "poisson";
  spec.param_a = 10.0;
  EXPECT_EQ(make_distribution(spec)->name(), "poisson");
  spec.dist = "constant";
  spec.param_a = 5.0;
  EXPECT_EQ(make_distribution(spec)->name(), "constant");
  spec.dist = "pareto";
  spec.param_a = 10.0;
  spec.param_b = 10000.0;
  EXPECT_EQ(make_distribution(spec)->name(), "pareto");
  spec.dist = "bimodal";
  EXPECT_EQ(make_distribution(spec)->name(), "bimodal");
}

TEST(Distributions, NamedKeysOverridePositionalParams) {
  WorkloadSpec spec;
  spec.dist = "uniform";
  spec.param_a = 10.0;
  spec.param_b = 100.0;
  spec.params.set("lo", 50.0).set("hi", 60.0);
  const auto d = make_distribution(spec);
  EXPECT_DOUBLE_EQ(d->min_size(), 50.0);
  EXPECT_DOUBLE_EQ(d->mean(), 55.0);
}

TEST(PaperCluster, MatchesSection42) {
  const auto cfg = paper_cluster(20.0);
  EXPECT_EQ(cfg.num_processors, 50u);
  EXPECT_DOUBLE_EQ(cfg.rate_lo, 10.0);
  EXPECT_DOUBLE_EQ(cfg.rate_hi, 100.0);
  EXPECT_DOUBLE_EQ(cfg.comm.mean_cost, 20.0);
  EXPECT_EQ(cfg.availability, sim::AvailabilityKind::kFixed);
}

TEST(Runner, CompletesAllTasksForEveryScheduler) {
  const Scenario s = small_scenario();
  for (const auto& name : all_schedulers()) {
    const auto runs = run_replications(s, name, quick_opts());
    ASSERT_EQ(runs.size(), s.replications);
    for (const auto& r : runs) {
      EXPECT_EQ(r.tasks_completed, s.workload.count) << name;
      EXPECT_GT(r.makespan, 0.0);
      EXPECT_GT(r.efficiency(), 0.0);
      EXPECT_LE(r.efficiency(), 1.0);
    }
  }
}

TEST(Runner, DeterministicAcrossCalls) {
  const Scenario s = small_scenario();
  const auto a = run_replications(s, "EF", quick_opts());
  const auto b = run_replications(s, "EF", quick_opts());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_DOUBLE_EQ(a[i].makespan, b[i].makespan);
  }
}

TEST(Runner, ParallelAndSerialAgree) {
  const Scenario s = small_scenario();
  const auto par = run_replications(s, "MM", quick_opts(), /*parallel=*/true);
  const auto ser = run_replications(s, "MM", quick_opts(), /*parallel=*/false);
  ASSERT_EQ(par.size(), ser.size());
  for (std::size_t i = 0; i < par.size(); ++i) {
    EXPECT_DOUBLE_EQ(par[i].makespan, ser[i].makespan);
    EXPECT_DOUBLE_EQ(par[i].efficiency(), ser[i].efficiency());
  }
}

TEST(Runner, ReplicationsDiffer) {
  const Scenario s = small_scenario();
  const auto runs = run_replications(s, "RR", quick_opts());
  EXPECT_NE(runs[0].makespan, runs[1].makespan);
}

TEST(Runner, RunOneMatchesReplicationSlot) {
  const Scenario s = small_scenario();
  const auto runs = run_replications(s, "LL", quick_opts());
  const auto lone = run_one(s, "LL", quick_opts(), 1);
  EXPECT_DOUBLE_EQ(lone.makespan, runs[1].makespan);
}

/// A scenario that exercises every input: streaming diurnal arrivals,
/// a non-default size family and processor failures.
Scenario streaming_scenario() {
  Scenario s = small_scenario();
  s.workload.dist = "pareto";
  s.workload.all_at_start = false;
  s.workload.mean_interarrival = 0.5;
  s.workload.arrival = "diurnal";
  sim::FailureConfig f;
  f.mean_uptime = 300.0;
  f.mean_downtime = 20.0;
  f.horizon = 5000.0;
  s.failures = f;
  return s;
}

TEST(ReplicationInputs, BoundInstanceSeesTheRunsTasksAndMachines) {
  const Scenario s = streaming_scenario();
  for (std::size_t rep = 0; rep < 2; ++rep) {
    const ReplicationInputs in = make_inputs(s, rep);
    ASSERT_TRUE(in.failures.has_value());
    EXPECT_GT(in.failures->total_outages(), 0u);
    ASSERT_EQ(in.workload.tasks.size(), s.workload.count);
    EXPECT_GT(in.workload.tasks.back().arrival_time, 0.0);

    const metrics::BoundInstance inst = bound_instance(s, rep);
    ASSERT_EQ(inst.task_sizes.size(), in.workload.tasks.size());
    for (std::size_t i = 0; i < inst.task_sizes.size(); ++i) {
      EXPECT_EQ(inst.task_sizes[i], in.workload.tasks[i].size_mflops) << i;
    }
    ASSERT_EQ(inst.rates.size(), in.cluster.size());
    ASSERT_EQ(inst.comm_costs.size(), in.cluster.size());
    for (std::size_t j = 0; j < in.cluster.size(); ++j) {
      EXPECT_EQ(inst.rates[j], in.cluster.processors[j].base_rate) << j;
      EXPECT_EQ(inst.comm_costs[j],
                in.cluster.comm->true_mean(static_cast<sim::ProcId>(j)))
          << j;
    }
    EXPECT_TRUE(inst.pending_mflops.empty());
  }
  // Replications draw different tasks.
  EXPECT_NE(bound_instance(s, 0).task_sizes, bound_instance(s, 1).task_sizes);
}

TEST(ReplicationInputs, SteadyStateBatchIsDeterministicPerReplication) {
  const BatchInstance a = steady_state_batch(11, 2, 30, 5);
  const BatchInstance b = steady_state_batch(11, 2, 30, 5);
  ASSERT_EQ(a.sizes.size(), 30u);
  ASSERT_EQ(a.view.size(), 5u);
  EXPECT_EQ(a.sizes, b.sizes);
  for (std::size_t j = 0; j < a.view.size(); ++j) {
    EXPECT_EQ(a.view.procs[j].id, static_cast<sim::ProcId>(j));
    EXPECT_EQ(a.view.procs[j].rate, b.view.procs[j].rate);
    EXPECT_GE(a.view.procs[j].rate, 10.0);
    EXPECT_LE(a.view.procs[j].rate, 100.0);
    EXPECT_GT(a.view.procs[j].comm_estimate, 0.0);
    EXPECT_EQ(a.view.procs[j].pending_mflops, 0.0);
  }
  EXPECT_NE(steady_state_batch(11, 3, 30, 5).sizes, a.sizes);
}

/// The fields bench/e2e's replica check compares, exactly.
void expect_same_result(const sim::SimulationResult& a,
                        const sim::SimulationResult& b) {
  EXPECT_EQ(a.makespan, b.makespan);
  EXPECT_EQ(a.tasks_completed, b.tasks_completed);
  EXPECT_EQ(a.scheduler_invocations, b.scheduler_invocations);
  EXPECT_EQ(a.mean_response_time, b.mean_response_time);
  EXPECT_EQ(a.tasks_requeued, b.tasks_requeued);
  ASSERT_EQ(a.per_proc.size(), b.per_proc.size());
  for (std::size_t j = 0; j < a.per_proc.size(); ++j) {
    EXPECT_EQ(a.per_proc[j].busy_time, b.per_proc[j].busy_time) << j;
    EXPECT_EQ(a.per_proc[j].comm_time, b.per_proc[j].comm_time) << j;
    EXPECT_EQ(a.per_proc[j].tasks, b.per_proc[j].tasks) << j;
    EXPECT_EQ(a.per_proc[j].work_mflops, b.per_proc[j].work_mflops) << j;
  }
}

TEST(Runner, PolicyFactoryMatchesTheNamedScheduler) {
  // Failures and non-default smoothing: the factory overload must map
  // the scenario onto the engine exactly as the name-based path does.
  Scenario s = streaming_scenario();
  s.comm_nu = 0.3;
  s.rate_nu = 0.7;
  for (const std::string name : {"PN", "EF"}) {
    const auto named = run_replications(s, name, quick_opts());
    std::size_t built = 0;
    const auto factory = run_replications(
        s,
        [&] {
          ++built;  // serial below, so no race
          return SchedulerRegistry::instance().create(name, quick_opts());
        },
        /*parallel=*/false);
    EXPECT_EQ(built, s.replications) << name;
    ASSERT_EQ(named.size(), factory.size()) << name;
    for (std::size_t r = 0; r < named.size(); ++r) {
      SCOPED_TRACE(name + " rep " + std::to_string(r));
      expect_same_result(named[r], factory[r]);
    }
  }
}

TEST(SteadyStateGa, OneStreamPassedTwiceMatchesTheHandWrittenRun) {
  const BatchInstance batch = steady_state_batch(11, 1, 40, 6);
  ga::GaConfig cfg;
  cfg.population = 8;
  cfg.max_generations = 25;
  cfg.improvement_passes = 1;
  cfg.record_history = true;
  const ga::RouletteSelection sel;
  const ga::CycleCrossover cx;
  const ga::SwapMutation mut;
  const ga::GaEngine engine(cfg, sel, cx, mut);

  util::Rng rng = util::Rng(11).split(1010);
  const ga::GaResult got =
      steady_state_ga(batch, engine, /*probes=*/3, 0.25, rng, rng);

  // The sequence the GA ablations wrote out by hand.
  const core::ScheduleCodec codec(40, batch.view.size());
  const core::ScheduleEvaluator eval(batch.sizes, batch.view, true);
  const core::ScheduleProblem problem(codec, eval, 3);
  util::Rng ref_rng = util::Rng(11).split(1010);
  auto init = core::initial_population(codec, eval, cfg.population, 0.25,
                                       ref_rng);
  const ga::GaResult want = engine.run(problem, std::move(init), ref_rng);

  EXPECT_EQ(got.best, want.best);
  EXPECT_EQ(got.objective_history, want.objective_history);
  EXPECT_FALSE(got.objective_history.empty());
  // Both streams end where the hand-written run left its one stream.
  EXPECT_EQ(rng.next_u64(), ref_rng.next_u64());
}

TEST(Runner, CellSummaryAggregates) {
  const Scenario s = small_scenario();
  const auto cell = run_cell(s, "EF", quick_opts());
  EXPECT_EQ(cell.scheduler, "EF");
  EXPECT_EQ(cell.replications, s.replications);
  EXPECT_GT(cell.makespan.mean, 0.0);
}

TEST(Runner, AcceptsCaseInsensitiveNamesAndLabelsCanonically) {
  const Scenario s = small_scenario();
  const auto cell = run_cell(s, "ef", quick_opts());
  EXPECT_EQ(cell.scheduler, "EF");
  const auto canonical = run_replications(s, "EF", quick_opts());
  const auto lower = run_replications(s, "ef", quick_opts());
  for (std::size_t i = 0; i < canonical.size(); ++i) {
    EXPECT_DOUBLE_EQ(canonical[i].makespan, lower[i].makespan);
  }
}

TEST(Runner, UnknownSchedulerThrowsBeforeRunning) {
  const Scenario s = small_scenario();
  EXPECT_THROW(run_replications(s, "NOPE", quick_opts()),
               std::runtime_error);
}

void expect_same_bits(const CertifiedBounds& got,
                      const CertifiedBounds& want) {
  EXPECT_EQ(std::bit_cast<std::uint64_t>(got.lb_comb),
            std::bit_cast<std::uint64_t>(want.lb_comb));
  EXPECT_EQ(std::bit_cast<std::uint64_t>(got.lb_qp),
            std::bit_cast<std::uint64_t>(want.lb_qp));
}

TEST(BoundMemo, ReturnsCertifiedBoundsAndSolvesEachInstanceOnce) {
  const Scenario s = small_scenario();
  const metrics::RelaxationBoundOptions opts;
  const CertifiedBounds want = certified_bounds(s, opts, false);
  const BoundMemo memo;
  EXPECT_EQ(memo.solves(), 0u);
  for (const bool parallel : {false, true, false}) {
    expect_same_bits(memo.bounds(s, opts, parallel), want);
    EXPECT_EQ(memo.solves(), s.replications);
  }
  // Another scheduler or label sees the same instances: no new solve.
  Scenario renamed = s;
  renamed.name = "other";
  expect_same_bits(memo.bounds(renamed, opts), want);
  EXPECT_EQ(memo.solves(), s.replications);
  // Different options or a different workload are different instances.
  metrics::RelaxationBoundOptions loose = opts;
  loose.tolerance = 1e-6;
  expect_same_bits(memo.bounds(s, loose), certified_bounds(s, loose));
  EXPECT_EQ(memo.solves(), 2 * s.replications);
  Scenario reseeded = s;
  reseeded.seed = s.seed + 1;
  expect_same_bits(memo.bounds(reseeded, opts),
                   certified_bounds(reseeded, opts));
  EXPECT_EQ(memo.solves(), 3 * s.replications);
}

TEST(BoundMemo, ConcurrentCallersShareOneSolvePerInstance) {
  const Scenario s = small_scenario();
  const metrics::RelaxationBoundOptions opts;
  const CertifiedBounds want = certified_bounds(s, opts, false);
  const BoundMemo memo;
  std::vector<CertifiedBounds> got(8);
  util::global_pool().parallel_for(0, got.size(), [&](std::size_t k) {
    got[k] = memo.bounds(s, opts, k % 2 == 0);
  });
  for (const CertifiedBounds& b : got) expect_same_bits(b, want);
  EXPECT_EQ(memo.solves(), s.replications);
}

TEST(BoundMemo, CopiesStartEmpty) {
  const Scenario s = small_scenario();
  const BoundMemo memo;
  memo.bounds(s, {});
  const BoundMemo copy(memo);
  EXPECT_EQ(copy.solves(), 0u);
  EXPECT_EQ(memo.solves(), s.replications);
}

TEST(BoundMemo, SweepRunnerMemoLivesForOneRun) {
  // Each cell reports how many instances it solved itself. Serial cells
  // make that deterministic: the first cell of every run solves all of
  // them, the rest reuse them.
  const Scenario s = small_scenario();
  const metrics::RelaxationBoundOptions opts;
  const CertifiedBounds want = certified_bounds(s, opts);
  Sweep sweep("memo");
  sweep.base(s).parallel(false).extra_columns(
      {"solved", "lb_comb", "lb_qp"});
  sweep.axis("scheduler", {{"a", {}}, {"b", {}}, {"c", {}}});
  sweep.runner([memo = BoundMemo()](const SweepCell& cell, bool parallel) {
    const std::size_t before = memo.solves();
    const CertifiedBounds b = memo.bounds(cell.scenario, {}, parallel);
    CellOutcome out;
    out.extras = {{"solved", static_cast<double>(memo.solves() - before)},
                  {"lb_comb", b.lb_comb},
                  {"lb_qp", b.lb_qp}};
    return out;
  });
  const Sweep copied = sweep;
  // The same Sweep twice, then a copy: each run starts a fresh memo.
  const Sweep* const runs[] = {&sweep, &sweep, &copied};
  for (const Sweep* run : runs) {
    const SweepResult r = run->run();
    ASSERT_EQ(r.rows.size(), 3u);
    for (std::size_t i = 0; i < r.rows.size(); ++i) {
      ASSERT_TRUE(r.rows[i].ok()) << r.rows[i].error;
      EXPECT_EQ(r.rows[i].extra("solved"),
                i == 0 ? static_cast<double>(s.replications) : 0.0);
      expect_same_bits({r.rows[i].extra("lb_comb"), r.rows[i].extra("lb_qp")},
                       want);
    }
  }
}

TEST(BoundMemo, ParallelSweepCellsSolveEachInstanceOnce) {
  const Scenario s = small_scenario();
  const CertifiedBounds want = certified_bounds(s, {});
  Sweep sweep("memo_parallel");
  sweep.base(s).parallel(true).extra_columns({"solves", "lb_qp"});
  sweep.axis("scheduler", {{"a", {}}, {"b", {}}, {"c", {}}, {"d", {}}});
  sweep.runner([memo = BoundMemo()](const SweepCell& cell, bool parallel) {
    const CertifiedBounds b = memo.bounds(cell.scenario, {}, parallel);
    CellOutcome out;
    out.extras = {{"solves", static_cast<double>(memo.solves())},
                  {"lb_qp", b.lb_qp}};
    return out;
  });
  const SweepResult r = sweep.run();
  for (const auto& row : r.rows) {
    ASSERT_TRUE(row.ok()) << row.error;
    // Never more than one solve per instance, whichever cell ran first.
    EXPECT_EQ(row.extra("solves"), static_cast<double>(s.replications));
    EXPECT_EQ(std::bit_cast<std::uint64_t>(row.extra("lb_qp")),
              std::bit_cast<std::uint64_t>(want.lb_qp));
  }
}

}  // namespace
}  // namespace gasched::exp
