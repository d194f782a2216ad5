// How close to optimal is a schedule? This example demonstrates the
// bounds API (metrics/bounds.hpp): it builds one small batch-scheduling
// instance, computes the exact optimal makespan by branch-and-bound,
// prices the greedy list schedule and every meta-heuristic searcher
// against it, and prints the gaps.
//
//   ./optimality_probe [--tasks N<=12] [--procs M<=4] [--seed S]

#include <iostream>

#include "core/genetic_scheduler.hpp"
#include "exp/scenario.hpp"
#include "meta/aco.hpp"
#include "meta/hill_climb.hpp"
#include "meta/sa.hpp"
#include "meta/tabu.hpp"
#include "metrics/bounds.hpp"
#include "util/cli.hpp"
#include "util/table.hpp"

using namespace gasched;

namespace {

double schedule_makespan(sim::SchedulingPolicy& policy,
                         const metrics::BoundInstance& inst,
                         const sim::SystemView& view, std::uint64_t seed) {
  std::deque<workload::Task> q;
  for (std::size_t i = 0; i < inst.task_sizes.size(); ++i) {
    q.push_back({static_cast<workload::TaskId>(i), inst.task_sizes[i], 0.0});
  }
  util::Rng rng(seed);
  const auto a = policy.invoke(view, q, rng);
  double ms = 0.0;
  for (std::size_t j = 0; j < view.size(); ++j) {
    double c = 0.0;
    for (const auto id : a.per_proc[j]) {
      c += inst.task_sizes[static_cast<std::size_t>(id)] /
               view.procs[j].rate +
           view.procs[j].comm_estimate;
    }
    ms = std::max(ms, c);
  }
  return ms;
}

}  // namespace

int main(int argc, char** argv) try {
  const util::Cli cli(argc, argv);
  const auto tasks = std::min<std::size_t>(cli.get_size("tasks", 10), 12);
  const auto procs = std::min<std::size_t>(cli.get_size("procs", 3), 4);
  const auto seed = cli.get_size("seed", 42);

  // Build one random instance.
  util::Rng rng(seed);
  metrics::BoundInstance inst;
  sim::SystemView view;
  view.procs.resize(procs);
  for (std::size_t j = 0; j < procs; ++j) {
    inst.rates.push_back(rng.uniform(10.0, 80.0));
    inst.comm_costs.push_back(rng.uniform(0.1, 2.0));
    view.procs[j].id = static_cast<sim::ProcId>(j);
    view.procs[j].rate = inst.rates[j];
    view.procs[j].comm_estimate = inst.comm_costs[j];
    view.procs[j].comm_observations = 1;
  }
  for (std::size_t i = 0; i < tasks; ++i) {
    inst.task_sizes.push_back(rng.uniform(20.0, 500.0));
  }

  std::cout << "Instance: " << tasks << " tasks on " << procs
            << " heterogeneous processors (exhaustive search space "
            << procs << "^" << tasks << ")\n\n";
  const double lb = metrics::makespan_lower_bound(inst);
  const double opt = metrics::optimal_makespan_exact(inst);
  std::cout << "lower bound      " << util::fmt(lb) << " s\n"
            << "exact optimum    " << util::fmt(opt) << " s  (bound gap "
            << util::fmt(100.0 * (opt - lb) / opt, 3) << "%)\n\n";

  util::Table table({"searcher", "makespan s", "vs optimum"});
  core::GeneticSchedulerConfig pn_cfg;
  pn_cfg.dynamic_batch = false;
  pn_cfg.fixed_batch = tasks;
  pn_cfg.ga.max_generations = 200;
  meta::SaConfig sa_cfg;
  sa_cfg.batch.batch_size = tasks;
  meta::TabuConfig ts_cfg;
  ts_cfg.batch.batch_size = tasks;
  meta::AcoConfig aco_cfg;
  aco_cfg.batch.batch_size = tasks;
  meta::HillClimbConfig hc_cfg;
  hc_cfg.batch.batch_size = tasks;

  std::vector<std::unique_ptr<sim::SchedulingPolicy>> policies;
  policies.push_back(core::make_pn_scheduler(pn_cfg));
  policies.push_back(meta::make_sa_scheduler(sa_cfg));
  policies.push_back(meta::make_tabu_scheduler(ts_cfg));
  policies.push_back(meta::make_aco_scheduler(aco_cfg));
  policies.push_back(meta::make_hill_climb_scheduler(hc_cfg));
  for (const auto& policy : policies) {
    const double ms = schedule_makespan(*policy, inst, view, seed + 1);
    table.add_row(policy->name(),
                  {ms, ms / opt});
  }
  table.print(std::cout);
  std::cout << "\nvs optimum = makespan / exact optimum (1.0 = optimal).\n";
  return 0;
} catch (const std::exception& e) {
  std::cerr << "error: " << e.what() << "\n";
  return 1;
}
