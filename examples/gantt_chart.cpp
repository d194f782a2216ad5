// Visual walk-through of one schedule: run a small simulation with task
// tracing enabled, validate the trace, render an ASCII Gantt chart, and
// optionally export the per-task trace as CSV.
//
//   ./gantt_chart [--tasks N] [--procs M] [--comm C] [--seed S]
//                 [--scheduler PN|ZO|EF|...] [--csv trace.csv]

#include <iostream>

#include "exp/config_scenario.hpp"
#include "exp/scenario.hpp"
#include "sim/engine.hpp"
#include "sim/gantt.hpp"
#include "util/cli.hpp"
#include "workload/generator.hpp"

using namespace gasched;

int main(int argc, char** argv) try {
  const util::Cli cli(argc, argv);
  const auto tasks = cli.get_size("tasks", 60);
  const auto procs = cli.get_size("procs", 8);
  const double comm = cli.get_double("comm", 5.0);
  const auto seed = cli.get_size("seed", 3);
  const std::string name = cli.get("scheduler", "PN");
  const std::string csv = cli.get("csv", "");

  exp::SchedulerParams opts;
  opts.set("batch_size", 20);
  opts.set("max_generations", 120);
  const auto policy = exp::make_scheduler(name, opts);

  const util::Rng base(seed);
  util::Rng cluster_rng = base.split(0);
  const sim::Cluster cluster =
      sim::build_cluster(exp::paper_cluster(comm, procs), cluster_rng);
  util::Rng workload_rng = base.split(1);
  workload::UniformSizes sizes(100.0, 2000.0);
  const workload::Workload wl = workload::generate(sizes, tasks, workload_rng);

  sim::EngineConfig cfg;
  cfg.record_task_trace = true;
  const sim::SimulationResult r =
      sim::simulate(cluster, wl, *policy, base.split(2), cfg);

  const std::string issue = sim::validate_task_trace(r);
  if (!issue.empty()) {
    std::cerr << "trace inconsistency: " << issue << "\n";
    return 1;
  }

  std::cout << name << " schedule of " << tasks << " tasks on " << procs
            << " processors — makespan " << r.makespan << " s, efficiency "
            << r.efficiency() << "\n\n# = executing, - = receiving, . = idle\n\n";
  sim::GanttOptions gopts;
  gopts.width = 96;
  gopts.max_procs = procs;
  sim::render_gantt(r, std::cout, gopts);

  if (!csv.empty()) {
    sim::save_task_trace(r, csv);
    std::cout << "\ntask trace written to " << csv << "\n";
  }
  return 0;
} catch (const std::exception& e) {
  std::cerr << "error: " << e.what() << "\n";
  return 1;
}
