#include "bench_common.hpp"

#include <cstdlib>
#include <iostream>
#include <optional>
#include <stdexcept>

namespace gasched::bench {

BenchParams parse_params(int argc, char** argv, std::size_t quick_tasks,
                         std::size_t quick_reps,
                         std::size_t quick_generations,
                         const std::vector<std::string>& extra_flags) {
  const util::Cli cli(argc, argv);
  BenchParams p;
  p.full = util::bench_full_scale() || cli.get_bool("full", false);
  if (p.full) {
    p.tasks = 10000;
    p.reps = 50;
    p.generations = 1000;
  } else {
    p.tasks = quick_tasks;
    p.reps = quick_reps;
    p.generations = quick_generations;
  }
  try {
    std::vector<std::string> known = extra_flags;
    known.insert(known.end(), {"tasks", "reps", "generations", "procs",
                               "population", "batch", "seed", "serial", "csv",
                               "json", "resume", "full"});
    cli.require_known(known);
    p.tasks = cli.get_size("tasks", p.tasks);
    p.reps = cli.get_size("reps", p.reps);
    p.generations = cli.get_size("generations", p.generations);
    p.procs = cli.get_size("procs", p.procs);
    p.population = cli.get_size("population", p.population);
    p.batch = cli.get_size("batch", p.batch);
    p.seed = cli.get_size("seed", p.seed);
  } catch (const std::runtime_error& e) {
    std::cerr << "error: " << e.what() << "\n";
    std::exit(2);
  }
  p.serial = cli.get_bool("serial", false);
  if (cli.has("csv")) p.csv = cli.get("csv", "");
  if (cli.has("json")) p.json = cli.get("json", "");
  p.resume = cli.get_bool("resume", false);
  if (p.resume && !p.csv && !p.json) {
    std::cerr << "error: --resume needs --csv and/or --json (the files "
                 "are what a resume continues from)\n";
    std::exit(2);
  }
  return p;
}

exp::SchedulerParams scheduler_params(const BenchParams& p) {
  exp::SchedulerParams o;
  o.set("batch_size", p.batch);
  o.set("max_generations", p.generations);
  o.set("population", p.population);
  o.set("pn_dynamic_batch", p.pn_dynamic_batch);
  return o;
}

void print_banner(const std::string& figure, const std::string& title,
                  const std::string& paper_expectation,
                  const BenchParams& p) {
  std::cout << "=== " << figure << ": " << title << " ===\n"
            << "Paper expectation: " << paper_expectation << "\n"
            << "Scale: " << (p.full ? "full (paper)" : "quick") << "  tasks="
            << p.tasks << " procs=" << p.procs << " reps=" << p.reps
            << " generations=" << p.generations << " batch=" << p.batch
            << " seed=" << p.seed
            << (p.serial ? "  (serial execution)" : "") << "\n\n";
}

exp::Scenario bench_scenario(const BenchParams& p,
                             const exp::WorkloadSpec& spec,
                             double mean_comm_cost, std::string name) {
  exp::Scenario s;
  s.name = std::move(name);
  s.cluster = exp::paper_cluster(mean_comm_cost, p.procs);
  s.workload = spec;
  s.workload.count = p.tasks;
  s.seed = p.seed;
  s.replications = p.reps;
  return s;
}

exp::Sweep make_sweep(std::string name, const BenchParams& p,
                      const exp::WorkloadSpec& spec, double mean_comm_cost) {
  exp::Sweep sweep(name);
  sweep.base(bench_scenario(p, spec, mean_comm_cost, std::move(name)));
  sweep.params(scheduler_params(p));
  sweep.parallel(!p.serial);
  return sweep;
}

exp::SweepResult run_sweep(exp::Sweep& sweep, const BenchParams& p,
                           bool print_table) {
  std::optional<metrics::TableSink> table;
  if (print_table) {
    table.emplace(std::cout);
    sweep.add_sink(*table);
  }
  const metrics::SinkMode mode = p.resume ? metrics::SinkMode::kResume
                                          : metrics::SinkMode::kTruncate;
  std::optional<metrics::CsvSink> csv;
  if (p.csv) {
    csv.emplace(*p.csv, mode);
    sweep.add_sink(*csv);
  }
  std::optional<metrics::JsonlSink> jsonl;
  if (p.json) {
    jsonl.emplace(*p.json, mode);
    sweep.add_sink(*jsonl);
  }
  const exp::SweepResult result = sweep.run();
  if (csv) std::cout << "CSV written to " << csv->path().string() << "\n";
  if (jsonl) {
    std::cout << "JSONL written to " << jsonl->path().string() << "\n";
  }
  if (result.failed > 0) {
    // A failed cell in a bench is always a configuration or regression
    // error, and every downstream shape check would silently compute on
    // default-constructed zeros — abort the binary instead.
    std::cerr << "error: " << result.failed << "/" << result.rows.size()
              << " sweep cells failed (see the error column above)\n";
    std::exit(EXIT_FAILURE);
  }
  if (result.skipped > 0) {
    // Resumed cells hold no in-memory data (their rows were read off
    // disk by the sinks, not recomputed), so the figure-specific tables
    // and shape checks after this call would compute on zeros. The
    // output files are complete — stop here, like figset does.
    std::cout << result.skipped << "/" << result.rows.size()
              << " cells were already on disk (--resume); output files "
                 "are complete. Re-run without --resume for the derived "
                 "tables and shape checks.\n";
    std::exit(EXIT_SUCCESS);
  }
  return result;
}

exp::FigScale to_scale(const BenchParams& p) {
  exp::FigScale s;
  s.tasks = p.tasks;
  s.procs = p.procs;
  s.reps = p.reps;
  s.generations = p.generations;
  s.population = p.population;
  s.batch = p.batch;
  s.seed = p.seed;
  s.full = p.full;
  return s;
}

int run_figure(const std::string& id, int argc, char** argv) {
  const exp::FigureDef& fig = exp::FigSet::instance().find(id);
  BenchParams p = parse_params(argc, argv, fig.quick_tasks, fig.quick_reps,
                               fig.quick_generations);
  // Figures 3/5/7 pin their paper task counts at full scale, but an
  // explicit --tasks wins — the same precedence figset uses, so both
  // drivers build identical grids from identical flags.
  const util::Cli cli(argc, argv);
  if (p.full && fig.full_tasks != 0 && !cli.has("tasks")) {
    p.tasks = fig.full_tasks;
  }
  print_banner(fig.number, fig.title, fig.paper_expectation, p);

  const exp::FigScale scale = to_scale(p);
  exp::Sweep sweep = fig.build(scale);
  sweep.parallel(!p.serial);
  const exp::SweepResult result = run_sweep(sweep, p, fig.grid_table);
  if (fig.report) fig.report(result, scale, std::cout);
  return 0;
}

}  // namespace gasched::bench
