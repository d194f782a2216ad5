// Compare all seven schedulers from the paper (EF, LL, RR, ZO, PN, MM,
// MX) on one scenario, reproducing the structure of the paper's makespan
// bar charts on a workload of your choice.
//
//   ./compare_schedulers [--dist normal|uniform|poisson|pareto|...]
//                        [--tasks N]
//                        [--procs M] [--comm C] [--reps R] [--seed S]

#include <iostream>
#include <string>

#include "exp/registry.hpp"
#include "exp/runner.hpp"
#include "util/cli.hpp"
#include "util/table.hpp"

using namespace gasched;

int main(int argc, char** argv) try {
  const util::Cli cli(argc, argv);
  exp::Scenario s;
  s.name = "compare";
  s.cluster = exp::paper_cluster(cli.get_double("comm", 10.0),
                                 cli.get_size("procs", 20));
  s.workload.count = cli.get_size("tasks", 600);
  s.seed = cli.get_size("seed", 42);
  s.replications = cli.get_size("reps", 3);

  // Any registered family works. Flags cover the common knobs; families
  // without a branch here (e.g. bimodal) run with their documented
  // registry defaults — use run_scenario with a [workload] section to
  // tune those.
  const std::string dist =
      exp::DistributionRegistry::instance().canonical_name(
          cli.get("dist", "normal"));
  s.workload.dist = dist;
  if (dist == "uniform") {
    s.workload.param_a = cli.get_double("lo", 10.0);
    s.workload.param_b = cli.get_double("hi", 1000.0);
  } else if (dist == "poisson") {
    s.workload.param_a = cli.get_double("mean", 100.0);
  } else if (dist == "pareto") {
    s.workload.params.set("alpha", cli.get_double("alpha", 1.1));
    s.workload.param_a = cli.get_double("lo", 10.0);
    s.workload.param_b = cli.get_double("hi", 10000.0);
  } else if (dist == "constant") {
    s.workload.param_a = cli.get_double("size", cli.get_double("mean", 1000.0));
  } else if (dist == "normal") {
    s.workload.param_a = cli.get_double("mean", 1000.0);
    s.workload.param_b = cli.get_double("variance", 9e5);
  }

  exp::SchedulerParams opts;
  opts.set("max_generations", cli.get_size("generations", 150));

  std::cout << "Comparing 7 schedulers: " << s.workload.count << " " << dist
            << " tasks, " << s.cluster.num_processors
            << " processors, mean comm cost " << s.cluster.comm.mean_cost
            << " s, " << s.replications << " replications\n\n";

  util::Table table({"scheduler", "makespan", "ci95", "efficiency",
                     "mean response", "sched CPU s"});
  double best = 1e300;
  std::string best_name;
  for (const auto kind : exp::all_schedulers()) {
    const auto cell = exp::run_cell(s, kind, opts);
    table.add_row(cell.scheduler,
                  {cell.makespan.mean, cell.makespan.ci95,
                   cell.efficiency.mean, cell.response.mean,
                   cell.sched_wall.mean});
    if (cell.makespan.mean < best) {
      best = cell.makespan.mean;
      best_name = cell.scheduler;
    }
  }
  table.print(std::cout);
  std::cout << "\nBest makespan: " << best_name << " (" << util::fmt(best, 6)
            << " s)\n";
  return 0;
} catch (const std::exception& e) {
  std::cerr << "error: " << e.what() << "\n";
  return 1;
}
