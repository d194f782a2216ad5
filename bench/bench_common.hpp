#pragma once
// Shared infrastructure for the figure-reproduction bench binaries.
//
// Every binary declares its experiment as an exp::Sweep (axes ×
// schedulers), runs it through run_sweep — which executes the grid in
// parallel on util::global_pool() and streams results to the standard
// sinks (ASCII table on stdout, crash-safe CSV via --csv, JSONL via
// --json; --resume continues a killed run from whichever of those files
// exist, including JSONL-only runs) — and then prints its
// figure-specific shape check from the returned rows.
// The paper-figure binaries (fig*) are one step thinner:
// their grids are registered in exp::FigSet and run_figure drives the
// whole binary, so the same definitions power tools/figset. Two scales
// are supported:
//   quick (default)       — reduced tasks/replications/generations so the
//                            whole suite runs in minutes;
//   full  (GASCHED_BENCH_SCALE=full or --full) — paper-scale parameters
//                            (10,000 tasks, 50 replications, 1000
//                            generations).
// --serial disables sweep parallelism (the determinism baseline: output
// files are byte-identical to a parallel run).

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "exp/figset.hpp"
#include "exp/runner.hpp"
#include "exp/sweep.hpp"
#include "metrics/sink.hpp"
#include "util/cli.hpp"
#include "util/csv.hpp"
#include "util/table.hpp"

namespace gasched::bench {

/// Scale-dependent experiment parameters.
struct BenchParams {
  std::size_t tasks = 1000;        ///< tasks per simulation
  std::size_t procs = 50;          ///< processors
  std::size_t reps = 3;            ///< replications per cell
  std::size_t generations = 120;   ///< GA generation cap
  std::size_t population = 20;     ///< GA population (paper: 20)
  std::size_t batch = 200;         ///< fixed batch size (paper: 200)
  std::uint64_t seed = 20050404;   ///< base seed (IPPS 2005 vintage)
  bool pn_dynamic_batch = true;    ///< PN batch policy (Fig 5/7 fix it)
  bool full = false;               ///< paper-scale switch
  bool serial = false;             ///< --serial: single-threaded sweep
  std::optional<std::string> csv;  ///< CSV output path (streaming sink)
  std::optional<std::string> json; ///< JSONL output path (streaming sink)
  /// --resume: open the --csv/--json sinks in SinkMode::kResume, so a
  /// killed run continues where its output files stop (cells already on
  /// disk are skipped; see Sweep::run). Requires --csv and/or --json.
  bool resume = false;
};

/// Parses common flags (--tasks, --reps, --generations, --procs,
/// --population, --batch, --seed, --csv, --json, --resume, --serial,
/// --full) on top of quick/full defaults. Exits with code 2 on a flag
/// that is neither common nor in `extra_flags` (the binary's own), on a
/// malformed number, and when --resume is given without --csv or --json
/// (there would be no file to continue from).
BenchParams parse_params(int argc, char** argv, std::size_t quick_tasks,
                         std::size_t quick_reps,
                         std::size_t quick_generations,
                         const std::vector<std::string>& extra_flags = {});

/// Shared SchedulerParams (batch_size, max_generations, population,
/// pn_dynamic_batch) matching `p`.
exp::SchedulerParams scheduler_params(const BenchParams& p);

/// Prints the figure banner: id, title, and the paper's qualitative
/// expectation the reproduction should match.
void print_banner(const std::string& figure, const std::string& title,
                  const std::string& paper_expectation,
                  const BenchParams& p);

/// The standard bench scenario: paper cluster at `mean_comm_cost` with
/// `spec` sizes, scaled by `p`.
exp::Scenario bench_scenario(const BenchParams& p,
                             const exp::WorkloadSpec& spec,
                             double mean_comm_cost, std::string name);

/// A Sweep preconfigured from `p`: bench scenario as the base cell,
/// scheduler_params(p), parallel unless --serial. Add axes and run it
/// with run_sweep.
exp::Sweep make_sweep(std::string name, const BenchParams& p,
                      const exp::WorkloadSpec& spec, double mean_comm_cost);

/// Runs `sweep` with the standard sinks: ASCII table on stdout (unless
/// `print_table` is false — benches that pivot their own table pass
/// false), streaming CSV at p.csv, streaming JSONL at p.json (both in
/// resume mode under --resume). Failed cells abort the binary with exit
/// code 1 after the table/sinks have reported them (a bench grid must
/// never silently compute its shape checks on missing cells). Cells
/// skipped by a resume make the binary exit 0 once the files are
/// complete: the in-memory rows for resumed cells are empty, so every
/// figure-specific table and shape check downstream of this call would
/// silently compute on zeros — the same reason figset omits reports for
/// resumed runs.
exp::SweepResult run_sweep(exp::Sweep& sweep, const BenchParams& p,
                           bool print_table = true);

/// The exp::FigScale equivalent of `p` (figure grids are built from
/// FigScale so the registered definitions in exp/figset.hpp and the
/// bench binaries share one source of truth).
exp::FigScale to_scale(const BenchParams& p);

/// The whole of a figure bench binary: looks `id` up in exp::FigSet,
/// parses the common flags against the figure's quick defaults (applying
/// its full-scale task pin), prints the banner, builds and runs the grid
/// with the standard sinks, and prints the figure's report/shape check.
/// Returns the process exit code.
int run_figure(const std::string& id, int argc, char** argv);

}  // namespace gasched::bench
