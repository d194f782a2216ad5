// Live demonstration (the paper's §6 future work): the PN scheduler and
// two baselines drive *real worker threads* executing calibrated
// floating-point work, with heterogeneous worker speeds and emulated
// per-worker dispatch latencies. The exact same SchedulingPolicy objects
// used in simulation run here unmodified.
//
//   ./live_runtime [--tasks N] [--workers W] [--scale S]

#include <iostream>

#include "exp/scenario.hpp"
#include "rt/runtime.hpp"
#include "util/cli.hpp"
#include "util/table.hpp"
#include "workload/generator.hpp"

using namespace gasched;

namespace {

rt::RuntimeConfig make_config(std::size_t workers, double scale) {
  rt::RuntimeConfig cfg;
  // Heterogeneous speeds: fastest worker 1.0 down to ~0.25.
  cfg.worker_speeds.resize(workers);
  for (std::size_t i = 0; i < workers; ++i) {
    cfg.worker_speeds[i] =
        1.0 - 0.75 * static_cast<double>(i) / std::max<std::size_t>(1, workers - 1);
  }
  // Heterogeneous dispatch latencies (ms-scale), the thing PN predicts.
  cfg.dispatch_latency.resize(workers);
  for (std::size_t i = 0; i < workers; ++i) {
    cfg.dispatch_latency[i] = 0.001 + 0.004 * static_cast<double>(i % 3);
  }
  cfg.work_scale = scale;
  cfg.min_batch_trigger = 32;
  cfg.seed = 99;
  return cfg;
}

}  // namespace

int main(int argc, char** argv) try {
  const util::Cli cli(argc, argv);
  const auto tasks = cli.get_size("tasks", 200);
  const auto workers = cli.get_size("workers", 6);
  const double scale = cli.get_double("scale", 0.2);

  workload::UniformSizes sizes(1.0, 8.0);  // nominal MFLOPs, kept small
  util::Rng wrng(5);
  const workload::Workload wl = workload::generate(sizes, tasks, wrng);

  std::cout << "Live runtime: " << tasks << " tasks on " << workers
            << " worker threads (speeds 1.0 → 0.25, latencies 1–5 ms)\n\n";

  exp::SchedulerParams opts;
  opts.set("max_generations", 60);
  opts.set("population", 16);
  opts.set("batch_size", 64);

  util::Table table({"scheduler", "makespan s", "busy s", "comm s",
                     "invocations"});
  for (const auto kind :
       {"PN", "EF",
        "RR"}) {
    rt::Runtime runtime(make_config(workers, scale),
                        exp::make_scheduler(kind, opts));
    for (const auto& t : wl.tasks) runtime.submit(t);
    const rt::RuntimeResult r = runtime.drain();
    double busy = 0.0, comm = 0.0;
    for (const auto& w : r.per_worker) {
      busy += w.busy_seconds;
      comm += w.comm_seconds;
    }
    table.add_row(kind,
                  {r.makespan_seconds, busy, comm,
                   static_cast<double>(r.scheduler_invocations)});
  }
  table.print(std::cout);
  std::cout << "\nSame SchedulingPolicy objects as the simulator — the §3 "
               "protocol, measured rates, and Γ-smoothed latency estimates "
               "all transfer to real threads.\n";
  return 0;
} catch (const std::exception& e) {
  std::cerr << "error: " << e.what() << "\n";
  return 1;
}
