// Quickstart: build a heterogeneous cluster, generate a workload, schedule
// it with the paper's PN genetic scheduler, and print the outcome.
//
//   ./quickstart [--tasks N] [--procs M] [--comm C] [--seed S]

#include <iostream>

#include "core/genetic_scheduler.hpp"
#include "exp/scenario.hpp"
#include "sim/engine.hpp"
#include "util/cli.hpp"
#include "util/table.hpp"
#include "workload/generator.hpp"

using namespace gasched;

int main(int argc, char** argv) try {
  const util::Cli cli(argc, argv);
  const auto tasks = cli.get_size("tasks", 500);
  const auto procs = cli.get_size("procs", 16);
  const double comm = cli.get_double("comm", 10.0);
  const auto seed = cli.get_size("seed", 1);

  std::cout << "gasched quickstart: " << tasks << " tasks on " << procs
            << " heterogeneous processors (mean comm cost " << comm
            << " s)\n\n";

  // 1. Describe and build the cluster. Rates are drawn uniformly from
  //    [10, 100] Mflop/s; links have normally distributed costs.
  const util::Rng base(seed);
  util::Rng cluster_rng = base.split(0);
  const sim::Cluster cluster =
      sim::build_cluster(exp::paper_cluster(comm, procs), cluster_rng);

  // 2. Generate a workload: normal task sizes, all arriving at t = 0.
  util::Rng workload_rng = base.split(1);
  workload::NormalSizes sizes(1000.0, 9e5);
  const workload::Workload wl =
      workload::generate(sizes, tasks, workload_rng);
  std::cout << "Workload: " << wl.size() << " tasks, "
            << util::fmt(wl.total_mflops(), 6) << " MFLOPs total\n";

  // 3. Create the PN scheduler (comm-aware GA, dynamic batch size) and
  //    run the simulation.
  auto pn = core::make_pn_scheduler();
  const sim::SimulationResult r =
      sim::simulate(cluster, wl, *pn, base.split(2));

  // 4. Report.
  std::cout << "\nResults (PN scheduler):\n"
            << "  makespan            " << util::fmt(r.makespan, 6) << " s\n"
            << "  efficiency          " << util::fmt(r.efficiency(), 4)
            << "\n"
            << "  mean response time  " << util::fmt(r.mean_response_time, 6)
            << " s\n"
            << "  scheduler calls     " << r.scheduler_invocations << "\n"
            << "  scheduler CPU time  "
            << util::fmt(r.scheduler_wall_seconds, 4) << " s\n\n";

  util::Table table({"proc", "rate Mflop/s", "tasks", "busy s", "comm s"});
  for (std::size_t j = 0; j < std::min<std::size_t>(cluster.size(), 8); ++j) {
    table.add_row("P" + std::to_string(j),
                  {cluster.processors[j].base_rate,
                   static_cast<double>(r.per_proc[j].tasks),
                   r.per_proc[j].busy_time, r.per_proc[j].comm_time});
  }
  table.print(std::cout);
  if (cluster.size() > 8) {
    std::cout << "(first 8 of " << cluster.size() << " processors shown)\n";
  }
  return 0;
} catch (const std::exception& e) {
  std::cerr << "error: " << e.what() << "\n";
  return 1;
}
