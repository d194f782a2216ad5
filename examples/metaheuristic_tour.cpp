// Tour of the meta-heuristic scheduler family: run the same workload
// through every batch searcher the library ships — the paper's PN and ZO
// genetic schedulers, the island-model PNI, simulated annealing, tabu
// search, ant colony optimisation, and restart hill climbing — and
// compare makespan, efficiency, and scheduling cost.
//
//   ./metaheuristic_tour [--tasks N] [--procs M] [--comm C] [--seed S]

#include <iostream>
#include <memory>
#include <vector>

#include "core/genetic_scheduler.hpp"
#include "exp/scenario.hpp"
#include "meta/aco.hpp"
#include "meta/hill_climb.hpp"
#include "meta/sa.hpp"
#include "meta/tabu.hpp"
#include "sim/engine.hpp"
#include "util/cli.hpp"
#include "util/table.hpp"
#include "workload/generator.hpp"

using namespace gasched;

int main(int argc, char** argv) try {
  const util::Cli cli(argc, argv);
  const auto tasks = cli.get_size("tasks", 600);
  const auto procs = cli.get_size("procs", 16);
  const double comm = cli.get_double("comm", 8.0);
  const auto seed = cli.get_size("seed", 7);

  std::cout << "Meta-heuristic tour: " << tasks << " tasks on " << procs
            << " processors, mean comm cost " << comm << " s\n\n";

  const util::Rng base(seed);
  util::Rng cluster_rng = base.split(0);
  const sim::Cluster cluster =
      sim::build_cluster(exp::paper_cluster(comm, procs), cluster_rng);
  util::Rng workload_rng = base.split(1);
  workload::UniformSizes sizes(10.0, 1000.0);
  const workload::Workload wl = workload::generate(sizes, tasks, workload_rng);

  // One factory per search strategy. All batch searchers use the same
  // batch size so results isolate the search itself.
  const std::size_t batch = 100;
  std::vector<std::unique_ptr<sim::SchedulingPolicy>> policies;
  {
    core::GeneticSchedulerConfig pn_cfg;
    pn_cfg.ga.max_generations = 150;
    pn_cfg.dynamic_batch = false;
    pn_cfg.fixed_batch = batch;
    policies.push_back(core::make_pn_scheduler(pn_cfg));
    policies.push_back(core::make_zo_scheduler(batch));
    policies.push_back(core::make_pn_island_scheduler(4, pn_cfg));

    meta::SaConfig sa;
    sa.batch.batch_size = batch;
    policies.push_back(meta::make_sa_scheduler(sa));
    meta::TabuConfig ts;
    ts.batch.batch_size = batch;
    policies.push_back(meta::make_tabu_scheduler(ts));
    meta::AcoConfig aco;
    aco.batch.batch_size = batch;
    policies.push_back(meta::make_aco_scheduler(aco));
    meta::HillClimbConfig hc;
    hc.batch.batch_size = batch;
    policies.push_back(meta::make_hill_climb_scheduler(hc));
  }

  util::Table table(
      {"scheduler", "makespan s", "efficiency", "sched CPU s", "invocations"});
  for (const auto& policy : policies) {
    // Fresh RNG per run: every scheduler sees identical tasks & cluster.
    const sim::SimulationResult r =
        sim::simulate(cluster, wl, *policy, base.split(2));
    table.add_row(policy->name(),
                  {r.makespan, r.efficiency(), r.scheduler_wall_seconds,
                   static_cast<double>(r.scheduler_invocations)});
  }
  table.print(std::cout);

  std::cout << "\nAll searchers see the same information (smoothed rates, "
               "pending load,\nsmoothed per-link comm estimates); only the "
               "search strategy differs.\n";
  return 0;
} catch (const std::exception& e) {
  std::cerr << "error: " << e.what() << "\n";
  return 1;
}
