// Extension: validation of the ZO baseline in the spirit of §4.1 — the
// authors "validated [their] implementation of this scheduler by
// reproducing some of the performance results in [19]" (Zomaya & Teh
// 2001) but do not show them. Zomaya & Teh's setting is homogeneous
// processors with a GA load-balancer; their headline observations are
// (a) the GA balances loads to near-optimal makespans, and (b) quality
// holds as the processor count scales. This bench reproduces both on a
// homogeneous cluster with near-zero communication cost, scoring ZO
// against the work lower bound W/(M·P) and against RR.

#include <iostream>

#include "bench_common.hpp"
#include "metrics/bounds.hpp"

using namespace gasched;

int main(int argc, char** argv) {
  const auto p = bench::parse_params(argc, argv, /*tasks=*/600, /*reps=*/4,
                                     /*generations=*/100);
  bench::print_banner(
      "Extension", "ZO baseline validation (Zomaya & Teh 2001 setting)",
      "Zomaya & Teh report near-optimal load balancing on homogeneous "
      "processors: expect ZO within a few percent of the W/(M*P) bound at "
      "every M, with RR clearly worse on heterogeneous task sizes",
      p);

  exp::WorkloadSpec spec;
  spec.dist = "uniform";
  spec.param_a = 10.0;
  spec.param_b = 1000.0;

  exp::Scenario base =
      bench::bench_scenario(p, spec, /*mean_comm=*/0.05, "zo-validation");
  base.cluster.rate_lo = 50.0;  // homogeneous: every rate is 50 Mflop/s
  base.cluster.rate_hi = 50.0;

  exp::Sweep sweep("zo-validation");
  sweep.base(base).params(bench::scheduler_params(p)).parallel(!p.serial);
  sweep.axis("procs", {4, 8, 16, 32},
             [](exp::SweepCell& c, double m) {
               c.scenario.cluster.num_processors =
                   static_cast<std::size_t>(m);
             });
  sweep.schedulers({"ZO", "RR", "EF"});
  sweep.extra_columns({"bound_ratio"});
  // Custom runner: the default replication run plus the per-replication
  // work lower bound over the tasks exp::make_inputs gives that run.
  sweep.runner([](const exp::SweepCell& cell, bool parallel) {
    const auto runs = exp::run_replications(cell.scenario, cell.scheduler,
                                            cell.params, parallel);
    double ratio = 0.0;
    for (std::size_t rep = 0; rep < runs.size(); ++rep) {
      const exp::ReplicationInputs in = exp::make_inputs(cell.scenario, rep);
      metrics::BoundInstance inst;
      for (const auto& task : in.workload.tasks) {
        inst.task_sizes.push_back(task.size_mflops);
      }
      inst.rates.assign(cell.scenario.cluster.num_processors, 50.0);
      ratio += runs[rep].makespan / metrics::makespan_lower_bound(inst);
    }
    exp::CellOutcome out;
    out.summary = metrics::aggregate(cell.scheduler, runs);
    out.extras = {{"bound_ratio",
                   ratio / static_cast<double>(runs.size())}};
    return out;
  });

  bench::run_sweep(sweep, p);
  std::cout << "\nbound_ratio = makespan / (W / (M*P) work bound); 1.0 is "
               "perfect balance.\n";
  return 0;
}
