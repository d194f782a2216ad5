// Extension: scheduler computation costs simulated time (§3.4). When the
// GA's wall time is charged to the simulation (sched_time_scale > 0),
// unlimited evolution delays dispatch and hurts makespan; the wall-clock
// budget (the "stop when a processor becomes idle" condition) restores
// the balance.

#include <iostream>

#include "bench_common.hpp"
#include "core/genetic_scheduler.hpp"
#include "exp/runner.hpp"

using namespace gasched;

namespace {

/// One PN configuration under a charged-time engine.
struct OverheadCase {
  const char* label;
  double time_scale;
  double budget;
  std::size_t gens;
};

}  // namespace

int main(int argc, char** argv) {
  const auto p = bench::parse_params(argc, argv, /*tasks=*/600, /*reps=*/3,
                                     /*generations=*/400);
  bench::print_banner(
      "Extension", "charging scheduler computation to simulated time",
      "paper-consistent hypothesis (§3.4): when GA time delays dispatch, "
      "capping evolution (the processor-idle stop) beats unlimited "
      "evolution; with free scheduling, more generations only help",
      p);

  // Scale: 1 wall second of GA time = `scale` simulated seconds. Large
  // values emulate a slow scheduler processor relative to the cluster.
  const double scale = 2000.0;
  const std::vector<OverheadCase> cases{
      {"free scheduling, 50 gens", 0.0, 0.0, 50},
      {"free scheduling, 400 gens", 0.0, 0.0, p.generations},
      {"charged time, 400 gens, no budget", scale, 0.0, p.generations},
      {"charged time, 400 gens, 20 ms budget", scale, 0.02, p.generations},
  };

  exp::WorkloadSpec spec;
  spec.dist = "normal";
  spec.param_a = 1000.0;
  spec.param_b = 9e5;

  exp::Sweep sweep =
      bench::make_sweep("sched-overhead", p, spec, /*mean_comm=*/10.0);
  std::vector<exp::Sweep::Value> values;
  for (std::size_t i = 0; i < cases.size(); ++i) {
    values.push_back({cases[i].label, {}});
  }
  sweep.axis("configuration", std::move(values));
  // Custom runner: max_wall_seconds lives on GeneticSchedulerConfig, not
  // in the registry's parameter surface, so the policy is built directly.
  sweep.runner([&](const exp::SweepCell& cell, bool parallel) {
    const OverheadCase& oc = cases[cell.index];
    exp::Scenario charged = cell.scenario;
    charged.sched_time_scale = oc.time_scale;
    const auto runs = exp::run_replications(
        charged,
        [&] {
          core::GeneticSchedulerConfig cfg;
          cfg.ga.max_generations = oc.gens;
          cfg.ga.population = p.population;
          cfg.max_wall_seconds = oc.budget;
          return core::make_pn_scheduler(cfg);
        },
        parallel);
    exp::CellOutcome out;
    out.summary = metrics::aggregate("PN", runs);
    return out;
  });

  bench::run_sweep(sweep, p);
  return 0;
}
