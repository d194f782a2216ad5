// Run an experiment grid defined in an INI-style config file — no
// recompilation needed. The scenario sections define the base cell; the
// optional [sweep] section turns it into a full grid (scalar axes +
// scheduler selector) executed in parallel by exp::Sweep, with results
// streaming to the table and optional crash-safe CSV/JSONL files.
//
//   ./run_scenario examples/scenario_example.ini
//   ./run_scenario my.ini --schedulers PN,EF,SUF --gantt
//   ./run_scenario my.ini --schedulers metaheuristic --csv out.csv
//   ./run_scenario grid.ini --serial --json out.jsonl
//   ./run_scenario grid.ini --csv out.csv --resume     # continue a kill
//   ./run_scenario grid.ini --csv s0.csv --shard 0/2   # machine 0 of 2
//   ./run_scenario serve.ini --serve    # live serving benchmark ([runtime])
//   ./run_scenario --list-schedulers
//   ./run_scenario --list-distributions

#include <cmath>
#include <iomanip>
#include <iostream>
#include <limits>
#include <optional>

#include "exp/config_scenario.hpp"
#include "exp/figset.hpp"
#include "exp/registry.hpp"
#include "exp/runner.hpp"
#include "exp/sweep.hpp"
#include "metrics/sink.hpp"
#include "metrics/timeline.hpp"
#include "rt/serve_config.hpp"
#include "sched/heuristics.hpp"
#include "sim/gantt.hpp"
#include "util/cli.hpp"
#include "util/table.hpp"

using namespace gasched;

namespace {

std::string tag_names(unsigned tags) {
  std::string out;
  auto add = [&](const char* name) {
    if (!out.empty()) out += ',';
    out += name;
  };
  if (tags & exp::kSchedulerTagPaper) add("paper");
  if (tags & exp::kSchedulerTagBaseline) add("baseline");
  if (tags & exp::kSchedulerTagMetaheuristic) add("metaheuristic");
  return out;
}

void pad_print(std::ostream& os, const std::string& name, std::size_t width,
               const std::string& summary) {
  os << "  " << name
     << std::string(name.size() < width ? width - name.size() : 1, ' ')
     << summary << "\n";
}

void list_schedulers(std::ostream& os) {
  const auto& registry = exp::SchedulerRegistry::instance();
  os << "Registered schedulers (tags select sets for --schedulers "
        "<tag|all|name,...>):\n";
  for (const auto& name : registry.names()) {
    const auto& entry = registry.find(name);
    const std::string tags = "[" + tag_names(entry.tags) + "]";
    pad_print(os, name + "  " + tags, 28, entry.summary);
  }
}

void list_distributions(std::ostream& os) {
  const auto& registry = exp::DistributionRegistry::instance();
  os << "Registered task-size distributions:\n";
  for (const auto& name : registry.names()) {
    pad_print(os, name, 10, registry.find(name).summary);
  }
}

void print_latency_row(std::ostream& os, const char* label,
                       const rt::LatencySummary& s) {
  auto us = [](double seconds) { return seconds * 1e6; };
  os << "  " << std::left << std::setw(12) << label << std::right
     << std::fixed << std::setprecision(1) << "p50 " << std::setw(10)
     << us(s.p50) << "   p99 " << std::setw(10) << us(s.p99) << "   p999 "
     << std::setw(10) << us(s.p999) << "   max " << std::setw(10)
     << us(s.max) << "   (us)\n";
}

// --serve: a live serving benchmark on this host instead of a simulation
// sweep. The [runtime] section configures the worker pool and the
// open-loop arrival stream; [workload] supplies the task-size
// distribution as usual.
int run_serve(const util::Config& cfg, std::ostream& os) {
  const rt::ServeSetup setup = rt::serve_setup_from_config(cfg);
  const exp::Scenario scenario = exp::scenario_from_config(cfg);
  const auto sizes = exp::make_distribution(scenario.workload);

  os << "Serving benchmark: " << setup.runtime.worker_speeds.size()
     << " workers, policy " << setup.serve.policy << ", arrival "
     << setup.serve.arrival << " @ " << setup.serve.rate << "/s for "
     << setup.serve.duration_s << " s ("
     << (setup.serve.shed ? "shed" : "block") << " on overload)\n";

  // The batch-mode policy is unused in serve mode but must be non-null.
  rt::Runtime runtime(setup.runtime, sched::make_rr());
  const rt::ServeResult r = runtime.serve(setup.serve, *sizes);

  os << "\n  offered " << r.offered << "   admitted " << r.admitted
     << "   shed " << r.shed << "   completed " << r.completed << "\n"
     << "  throughput " << std::fixed << std::setprecision(1)
     << r.throughput_per_sec << " tasks/s over " << std::setprecision(2)
     << r.duration_s << " s\n\n";
  print_latency_row(os, "scheduling", r.sched_latency);
  print_latency_row(os, "queueing", r.queue_latency);
  print_latency_row(os, "sojourn", r.sojourn);
  os << "\n  worker   tasks        mflops   busy_s\n";
  for (std::size_t j = 0; j < r.per_worker.size(); ++j) {
    const auto& w = r.per_worker[j];
    os << "  " << std::setw(6) << j << std::setw(8) << w.tasks
       << std::setw(14) << std::setprecision(1) << w.work_mflops
       << std::setw(9) << std::setprecision(3) << w.busy_seconds << "\n";
  }
  return 0;
}

// [bounds] report: certified makespan lower bounds per scenario grid
// point, alongside the best measured makespan across schedulers at that
// point. The scheduler axis is innermost in the flattened job list, so
// cells sharing every non-scheduler coordinate are consecutive and share
// one scenario; bounds are computed once per group. Both columns are
// certified (docs/bounds.md): any schedule's makespan is >= lb_qp >=
// lb_comb up to the rounding margin, whatever the solver did.
void print_certified_bounds(const exp::Sweep& sweep,
                            const exp::SweepResult& result,
                            const metrics::RelaxationBoundOptions& opts,
                            bool parallel, std::ostream& os) {
  const auto cells = sweep.flatten();
  if (cells.empty()) return;
  auto group_key = [](const exp::SweepCell& c) {
    std::string k;
    for (const auto& [axis, label] : c.coords) {
      if (axis == "scheduler") continue;
      if (!k.empty()) k += ' ';
      k += axis + "=" + label;
    }
    return k.empty() ? std::string("(base)") : k;
  };
  os << "\nCertified lower bounds ([bounds] enabled, tol "
     << opts.tolerance << ", max_iter " << opts.max_iterations << "):\n"
     << "  " << std::left << std::setw(28) << "point" << std::right
     << std::setw(12) << "lb_comb" << std::setw(12) << "lb_qp"
     << std::setw(12) << "best_ms" << std::setw(10) << "gap_pct" << "\n";
  std::size_t i = 0;
  while (i < cells.size()) {
    const std::string group = group_key(cells[i]);
    double best = std::numeric_limits<double>::infinity();
    std::size_t j = i;
    for (; j < cells.size() && group_key(cells[j]) == group; ++j) {
      for (const auto& row : result.rows) {
        if (row.index == cells[j].index && row.ok() && !row.skipped &&
            row.cell.replications > 0) {
          best = std::min(best, row.cell.makespan.mean);
        }
      }
    }
    const exp::CertifiedBounds b =
        exp::certified_bounds(cells[i].scenario, opts, parallel);
    os << "  " << std::left << std::setw(28) << group << std::right
       << std::fixed << std::setprecision(3) << std::setw(12) << b.lb_comb
       << std::setw(12) << b.lb_qp;
    if (std::isfinite(best) && b.lb_qp > 0.0) {
      os << std::setw(12) << best << std::setw(9)
         << 100.0 * (best / b.lb_qp - 1.0) << "%";
    } else {
      os << std::setw(12) << "-" << std::setw(10) << "-";
    }
    os << "\n" << std::defaultfloat;
    i = j;
  }
}

}  // namespace

int usage(std::ostream& os, const std::string& program, int code) {
  os << "usage: " << program
     << " <scenario.ini> [options]\n"
        "       " << program << " --list-schedulers\n"
        "       " << program << " --list-distributions\n"
        "\n"
        "Runs the scenario's experiment grid: the INI's scenario sections\n"
        "([scenario]/[cluster]/[comm]/[workload]/[scheduler]/[failures])\n"
        "define the base cell, and the optional [sweep] section adds axes —\n"
        "`schedulers = <selector>` plus any number of `key = v1, v2, ...`\n"
        "scalar axes (scenario keys such as procs, tasks, mean_comm_cost\n"
        "sweep the scenario; any other key sweeps a [scheduler] parameter).\n"
        "See examples/scenario_example.ini and docs/sweeps.md.\n"
        "\n"
        "options:\n"
        "  --schedulers <tag|all|name,...>  replace the config's scheduler\n"
        "                   selector; tags are paper, baseline,\n"
        "                   metaheuristic (see --list-schedulers)\n"
        "  --csv out.csv    stream results to a crash-safe CSV (flushed\n"
        "                   per row; byte-identical across thread counts)\n"
        "  --json out.jsonl stream results as JSON Lines\n"
        "  --resume         with --csv/--json: skip cells already present\n"
        "                   in the file(s) and append only missing rows.\n"
        "                   Assumes the INI and flags are unchanged since\n"
        "                   the original run — only axis names are encoded\n"
        "                   in the files, so edits to base scenario values\n"
        "                   (seed, cluster, ...) cannot be detected (the\n"
        "                   figset tool verifies this via its manifest)\n"
        "  --shard I/N      run only cells with job index ≡ I (mod N)\n"
        "  --serial         disable sweep parallelism\n"
        "  --gantt          render a Gantt chart of the first cell's run\n"
        "  --serve          run a live serving benchmark on this host\n"
        "                   instead of a simulation sweep: the [runtime]\n"
        "                   section sets workers/policy/arrival rate (see\n"
        "                   docs/runtime.md), [workload] the task sizes\n"
        "\n"
        "With `[bounds] enabled = true` in the INI, a certified\n"
        "lower-bound table (lb_comb, lb_qp, best-scheduler gap) prints\n"
        "after the sweep — keys tolerance and max_iterations tune the\n"
        "interior-point solver; see docs/bounds.md.\n";
  return code;
}

int main(int argc, char** argv) {
  const util::Cli cli(argc, argv);
  try {
    cli.require_known({"list-schedulers", "list-distributions", "help",
                       "serve", "schedulers", "serial", "shard", "resume",
                       "csv", "json", "gantt"});
  } catch (const std::runtime_error& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 2;
  }
  if (cli.get_bool("list-schedulers", false)) {
    list_schedulers(std::cout);
    return 0;
  }
  if (cli.get_bool("list-distributions", false)) {
    list_distributions(std::cout);
    return 0;
  }
  if (cli.get_bool("help", false)) return usage(std::cout, cli.program(), 0);
  if (cli.positional().empty()) return usage(std::cerr, cli.program(), 2);

  int exit_code = 0;
  try {
    const util::Config cfg = util::Config::load(cli.positional()[0]);
    if (cli.get_bool("serve", false)) return run_serve(cfg, std::cout);
    exp::Sweep sweep =
        exp::sweep_from_config(cfg, cli.get("schedulers", ""));
    sweep.parallel(!cli.get_bool("serial", false));

    const std::string shard = cli.get("shard", "");
    if (!shard.empty()) {
      const auto [index, count] = exp::parse_shard_spec(shard);
      sweep.shard(index, count);
    }
    const bool resume = cli.get_bool("resume", false);
    if (resume && !cli.has("csv") && !cli.has("json")) {
      std::cerr << "error: --resume needs --csv and/or --json (the files "
                   "to continue into)\n";
      return 2;
    }
    const metrics::SinkMode mode = resume ? metrics::SinkMode::kResume
                                          : metrics::SinkMode::kTruncate;

    const exp::Scenario scenario = exp::scenario_from_config(cfg);
    std::cout << "Scenario '" << scenario.name << "': "
              << scenario.workload.count << " " << scenario.workload.dist
              << " tasks on " << scenario.cluster.num_processors
              << " processors, " << scenario.replications << " replications"
              << (scenario.failures ? ", with failures" : "") << " — "
              << sweep.cell_count() << " grid cells\n\n";

    metrics::TableSink table(std::cout);
    sweep.add_sink(table);
    std::optional<metrics::CsvSink> csv;
    if (cli.has("csv")) {
      csv.emplace(cli.get("csv", ""), mode);
      sweep.add_sink(*csv);
    }
    std::optional<metrics::JsonlSink> jsonl;
    if (cli.has("json")) {
      jsonl.emplace(cli.get("json", ""), mode);
      sweep.add_sink(*jsonl);
    }

    const exp::SweepResult result = sweep.run();
    if (csv) std::cout << "CSV written to " << csv->path().string() << "\n";
    if (jsonl) {
      std::cout << "JSONL written to " << jsonl->path().string() << "\n";
    }
    if (result.failed > 0) {
      std::cerr << "error: " << result.failed << "/" << result.rows.size()
                << " cells failed (see table)\n";
      exit_code = 1;
    }

    const metrics::RelaxationBoundOptions bound_opts =
        exp::bounds_from_config(cfg);
    if (bound_opts.enabled && exit_code == 0) {
      print_certified_bounds(sweep, result, bound_opts,
                             !cli.get_bool("serial", false), std::cout);
    }

    if (cli.get_bool("gantt", false) && exit_code == 0) {
      // Re-run replication 0 of the first grid cell with tracing on —
      // through run_one, so the chart shows exactly the run the table
      // aggregated (same arrivals, smoothing, and failure trace).
      const auto cells = sweep.flatten();
      const auto& first = cells.front();
      const auto r = exp::run_one(first.scenario, first.scheduler,
                                  first.params, 0,
                                  /*record_task_trace=*/true);
      std::cout << "\n";
      sim::render_gantt(r, std::cout);
      const auto timeline = metrics::utilization_timeline(r, 20);
      std::cout << "\nUtilization timeline (busy fraction per 5% of run):\n";
      for (const auto& p : timeline) {
        const auto stars = static_cast<std::size_t>(p.busy_fraction * 40.0);
        std::cout << util::fmt(p.time, 5) << "s |" << std::string(stars, '*')
                  << "\n";
      }
    }
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 1;
  }
  return exit_code;
}
