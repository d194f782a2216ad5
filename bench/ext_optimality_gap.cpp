// Extension: how near is "near-optimal"? §3 claims the scheduler "can
// produce near-optimal schedules" without quantifying the gap. Part 1
// measures every batch searcher against the *exact* optimum
// (branch-and-bound, metrics/bounds.hpp) on small single-batch
// instances. Part 2 runs the registered `extgap` figure grid
// (exp::FigSet): full-simulation makespans at H=600 tasks / M=50
// processors against two *certified* lower bounds — `lb_comb`
// (combinatorial, metrics::makespan_lower_bound) and `lb_qp` (the
// interior-point relaxation bound, metrics::relaxation_lower_bound;
// docs/bounds.md) — with the certified `gap_pct` column. The binary
// exits 1 if lb_qp fails to dominate lb_comb on any cell: the fold in
// relaxation_lower_bound makes that impossible unless the bound stack
// is broken, so CI treats it as a hard failure.
//
// --quick shrinks both parts to a seconds-long smoke run for CI.

#include <deque>
#include <iostream>

#include "bench_common.hpp"
#include "metrics/bounds.hpp"
#include "sim/cluster.hpp"
#include "util/thread_pool.hpp"
#include "workload/generator.hpp"

using namespace gasched;

int main(int argc, char** argv) {
  auto p = bench::parse_params(argc, argv, /*tasks=*/600, /*reps=*/3,
                               /*generations=*/100, {}, {"quick"});
  const bool quick = util::Cli(argc, argv, {"quick"}).get_bool("quick", false);
  if (quick) {
    // CI smoke scale: exercises every code path (exact search, GA
    // schedulers, interior-point bound) in a few seconds.
    p.tasks = 120;
    p.procs = 12;
    p.reps = 1;
    p.generations = 10;
  }
  bench::print_banner(
      "Extension", "optimality gap (SS3's 'near-optimal' claim, quantified)",
      "hypothesis: informed batch searchers land within a few percent of "
      "the exact optimum on small instances; at scale, makespans sit "
      "within a modest constant of the certified relaxation bound lb_qp, "
      "which dominates the combinatorial bound lb_comb on every cell",
      p);

  // ---- Part 1: exact optimum on small single-batch instances ----------
  const std::size_t kInstances = p.full ? 40 : (quick ? 6 : 15);
  const std::size_t kTinyTasks = 10;
  const std::size_t kTinyProcs = 3;

  std::cout << "Part 1 — single batch of " << kTinyTasks << " tasks on "
            << kTinyProcs << " processors, " << kInstances
            << " random instances, exact optimum by branch-and-bound:\n";

  exp::WorkloadSpec spec;
  spec.dist = "normal";
  spec.param_a = 1000.0;
  spec.param_b = 9e5;

  exp::Sweep part1 = bench::make_sweep("optgap-exact", p, spec,
                                       /*mean_comm=*/10.0);
  part1.schedulers(exp::metaheuristic_schedulers());
  part1.extra_columns({"mean_makespan_over_optimum"});
  part1.runner([&](const exp::SweepCell& cell, bool parallel) {
    // Estimated makespan of one batch assignment under `view`.
    const auto assignment_makespan =
        [](const sim::BatchAssignment& a, const sim::SystemView& view,
           const std::vector<double>& sizes) {
          double ms = 0.0;
          for (std::size_t j = 0; j < view.size(); ++j) {
            double c = view.procs[j].pending_mflops / view.procs[j].rate;
            for (const auto id : a.per_proc[j]) {
              c += sizes[static_cast<std::size_t>(id)] /
                       view.procs[j].rate +
                   view.procs[j].comm_estimate;
            }
            ms = std::max(ms, c);
          }
          return ms;
        };
    std::vector<double> gaps(kInstances);
    util::for_each_index(kInstances, parallel, [&](std::size_t inst_i) {
      util::Rng rng(p.seed + inst_i);
      metrics::BoundInstance inst;
      sim::SystemView view;
      view.procs.resize(kTinyProcs);
      for (std::size_t j = 0; j < kTinyProcs; ++j) {
        inst.rates.push_back(rng.uniform(10.0, 80.0));
        inst.comm_costs.push_back(rng.uniform(0.1, 2.0));
        view.procs[j].id = static_cast<sim::ProcId>(j);
        view.procs[j].rate = inst.rates[j];
        view.procs[j].comm_estimate = inst.comm_costs[j];
        view.procs[j].comm_observations = 1;
      }
      for (std::size_t i = 0; i < kTinyTasks; ++i) {
        inst.task_sizes.push_back(rng.uniform(20.0, 500.0));
      }
      const double opt = metrics::optimal_makespan_exact(inst);

      exp::SchedulerParams opts;
      opts.set("batch_size", kTinyTasks);
      opts.set("max_generations", p.generations);
      opts.set("population", p.population);
      // One fixed batch covering the whole instance: the dynamic H rule
      // would schedule a processor-count-sized prefix only.
      opts.set("pn_dynamic_batch", false);
      const auto policy = exp::make_scheduler(cell.scheduler, opts);
      std::deque<workload::Task> q;
      for (std::size_t i = 0; i < kTinyTasks; ++i) {
        q.push_back(
            {static_cast<workload::TaskId>(i), inst.task_sizes[i], 0.0});
      }
      util::Rng prng(p.seed + 1000 + inst_i);
      const auto a = policy->invoke(view, q, prng);
      if (!q.empty()) {
        // A partial assignment would make the gap look better than the
        // exact optimum — surface it rather than scoring it silently.
        std::cerr << "warning: " << cell.scheduler << " left " << q.size()
                  << " tasks unscheduled on instance " << inst_i << "\n";
      }
      gaps[inst_i] = assignment_makespan(a, view, inst.task_sizes) / opt;
    });
    exp::CellOutcome out;
    out.extras = {
        {"mean_makespan_over_optimum", util::summarize(gaps).mean}};
    return out;
  });
  bench::BenchParams part1_p = p;
  part1_p.csv.reset();  // --csv/--json capture the Part 2 grid below
  part1_p.json.reset();
  bench::run_sweep(part1, part1_p);

  // ---- Part 2: certified lower-bound gap at simulation scale -----------
  std::cout << "\nPart 2 — `extgap` figure grid: full simulation ("
            << p.tasks << " tasks, " << p.procs
            << " processors) vs certified bounds lb_comb and lb_qp:\n";

  const exp::FigureDef& fig = exp::FigSet::instance().find("extgap");
  exp::Sweep part2 = fig.build(bench::to_scale(p));
  const exp::SweepResult r2 = bench::run_sweep(part2, p);
  fig.report(r2, bench::to_scale(p), std::cout);

  // Hard certificate check: relaxation_lower_bound folds the
  // combinatorial bound in, so lb_qp < lb_comb (beyond rounding) means
  // the bound stack itself is broken — fail the binary.
  bool dominance_broken = false;
  for (const auto& row : r2.rows) {
    if (row.extra("lb_qp") < row.extra("lb_comb") - 1e-9) {
      std::cerr << "error: cell " << row.index << " (" << row.scheduler
                << "): lb_qp=" << row.extra("lb_qp") << " < lb_comb="
                << row.extra("lb_comb") << " — certified bound regression\n";
      dominance_broken = true;
    }
  }
  if (dominance_broken) return 1;

  std::cout << "\nBoth Part 2 bounds ignore availability/queueing dynamics, "
               "so gap_pct includes\nboth scheduler suboptimality and bound "
               "looseness; Part 1 isolates the former.\n";
  return 0;
}
