// figset — the paper-figure driver. Runs the whole fig03–fig11 suite of
// conf_ipps_PageN05 (or a --only/--tag subset) as one sequence of
// sweeps with a shared progress line, one CSV + JSONL file per figure in
// a single output directory, and a manifest.json recording provenance
// (git sha, config hash, thread count, per-figure cell counts).
//
//   figset                          # whole suite, quick scale, ./figset_out
//   figset run --only 'fig0[5-9]'   # glob subset
//   figset run --tag makespan --full --out paper/
//   figset run --shard 0/4 --out s0 # machine 0 of 4 (disjoint rows)
//   figset merge --out merged s0 s1 s2 s3
//   figset run --resume --out paper/  # continue a killed run
//   figset list                     # figure ↔ grid table
//
// Resume and sharding rely on the sweep engine's deterministic job
// lists: a resumed or sharded-and-merged CSV is byte-identical to a
// fresh single-machine run (see docs/sweeps.md).

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <optional>
#include <set>
#include <stdexcept>
#include <string>
#include <tuple>
#include <vector>

#include "exp/figset.hpp"
#include "metrics/sink.hpp"
#include "util/cli.hpp"
#include "util/json.hpp"
#include "util/table.hpp"
#include "util/thread_pool.hpp"

#if defined(__unix__) || defined(__APPLE__)
#include <unistd.h>
#endif

namespace fs = std::filesystem;
using namespace gasched;

namespace {

// --- small helpers ----------------------------------------------------------

bool stderr_is_tty() {
#if defined(__unix__) || defined(__APPLE__)
  return isatty(fileno(stderr)) != 0;
#else
  return false;
#endif
}

/// FNV-1a over `text` — the run's config hash. Stable across machines
/// and shard assignments so `figset merge` can verify that shard
/// outputs describe the same configuration.
std::string fnv1a_hex(const std::string& text) {
  std::uint64_t h = 1469598103934665603ull;
  for (const unsigned char c : text) {
    h ^= c;
    h *= 1099511628211ull;
  }
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(h));
  return std::string(buf);
}

std::string first_line(const fs::path& path) {
  std::ifstream in(path);
  std::string line;
  std::getline(in, line);
  return line;
}

/// Best-effort HEAD commit: walks up from the working directory to find
/// .git, follows symbolic refs (loose or packed). "unknown" on failure —
/// figset must run fine from an exported tarball too.
std::string git_sha() {
  fs::path dir = fs::current_path();
  for (int depth = 0; depth < 16; ++depth) {
    fs::path git = dir / ".git";
    if (fs::exists(git)) {
      if (fs::is_regular_file(git)) {  // worktree: "gitdir: <path>"
        const std::string line = first_line(git);
        const std::string prefix = "gitdir: ";
        if (line.rfind(prefix, 0) != 0) return "unknown";
        git = dir / line.substr(prefix.size());
      }
      const std::string head = first_line(git / "HEAD");
      const std::string ref_prefix = "ref: ";
      if (head.rfind(ref_prefix, 0) != 0) {
        return head.empty() ? "unknown" : head;  // detached HEAD
      }
      const std::string ref = head.substr(ref_prefix.size());
      const std::string loose = first_line(git / ref);
      if (!loose.empty()) return loose;
      std::ifstream packed(git / "packed-refs");
      std::string line;
      while (std::getline(packed, line)) {
        if (line.size() > ref.size() + 41 &&
            line.compare(line.size() - ref.size(), ref.size(), ref) == 0 &&
            line[40] == ' ') {
          return line.substr(0, 40);
        }
      }
      return "unknown";
    }
    if (!dir.has_parent_path() || dir.parent_path() == dir) break;
    dir = dir.parent_path();
  }
  return "unknown";
}

/// False, after printing `error: unknown flag --x`, when `cli` holds a
/// flag outside the command's `known` set: a misspelled flag must not
/// silently leave its setting at the default.
bool flags_known(const util::Cli& cli, const std::vector<std::string>& known) {
  try {
    cli.require_known(known);
    return true;
  } catch (const std::runtime_error& e) {
    std::cerr << "error: " << e.what() << "\n";
    return false;
  }
}

int usage(std::ostream& os, int code) {
  os << "usage: figset [run] [options]     run figures (default command)\n"
        "       figset list [--markdown]   print the figure table\n"
        "       figset plot [--out DIR] [--only PAT] [--tag TAG]\n"
        "                                  emit <fig>.gp/<fig>.py plot\n"
        "                                  scripts next to the CSVs\n"
        "       figset merge --out DIR SHARD_DIR...   stitch shard outputs\n"
        "\n"
        "run options:\n"
        "  --out DIR        output directory (default figset_out)\n"
        "  --only PATTERN   glob over figure ids, e.g. 'fig0[5-9]', 'fig1*'\n"
        "  --tag TAG        keep figures carrying TAG (makespan, efficiency,\n"
        "                   ga, convergence, overhead, normal, uniform,\n"
        "                   poisson, bounds, gap, extension)\n"
        "  --full           paper-scale parameters (10000 tasks, 50 reps,\n"
        "                   1000 generations; also GASCHED_BENCH_SCALE=full)\n"
        "  --tasks/--reps/--generations/--procs/--seed/--population/--batch\n"
        "                   override the scale for every selected figure\n"
        "  --shard I/N      run only cells with job index ≡ I (mod N);\n"
        "                   N machines produce disjoint rows for figset merge\n"
        "  --resume         continue into an existing --out: cells already\n"
        "                   in a figure's CSV+JSONL are skipped, files are\n"
        "                   appended, final CSVs byte-identical to a fresh\n"
        "                   run\n"
        "  --serial         disable sweep parallelism\n"
        "  --no-report      skip the per-figure shape-check reports\n"
        "\n"
        "Figure ids, grids and expected columns: docs/figures.md.\n"
        "Resume/shard semantics and sink formats: docs/sweeps.md.\n";
  return code;
}

// --- shared progress line ---------------------------------------------------

/// One progress line for the whole suite, updated from each sweep's row
/// stream (rows arrive as completed prefixes, so the count is live).
struct SuiteProgress {
  bool enabled = stderr_is_tty();
  std::string fig;
  std::size_t fig_index = 0, fig_count = 0;
  std::size_t cells_done = 0, cells_total = 0, cells_skipped = 0;

  void print() const {
    if (!enabled) return;
    std::fprintf(stderr, "\r[figset] %s (%zu/%zu) · %zu/%zu cells",
                 fig.c_str(), fig_index, fig_count, cells_done, cells_total);
    if (cells_skipped > 0) {
      std::fprintf(stderr, " (%zu resumed/off-shard)", cells_skipped);
    }
    std::fflush(stderr);
  }
  void finish() const {
    if (enabled) std::fprintf(stderr, "\n");
  }
};

class ProgressSink final : public metrics::ResultSink {
 public:
  explicit ProgressSink(SuiteProgress& progress) : progress_(progress) {}
  void row(const metrics::SweepRow&) override {
    ++progress_.cells_done;
    progress_.print();
  }

 private:
  SuiteProgress& progress_;
};

// --- run --------------------------------------------------------------------

struct RunOptions {
  fs::path out = "figset_out";
  std::string only;
  std::string tag;
  bool full = false;
  bool serial = false;
  bool resume = false;
  bool report = true;
  std::size_t shard_index = 0;
  std::size_t shard_count = 1;
  // Scale overrides (unset = keep the figure's quick/full default).
  std::optional<std::size_t> tasks, reps, generations, procs, population,
      batch;
  std::optional<std::uint64_t> seed;
};

/// Applies the CLI overrides to a figure's resolved scale.
exp::FigScale resolve_scale(const exp::FigureDef& fig, const RunOptions& o) {
  exp::FigScale s = fig.scale(o.full);
  if (o.tasks) s.tasks = *o.tasks;
  if (o.reps) s.reps = *o.reps;
  if (o.generations) s.generations = *o.generations;
  if (o.procs) s.procs = *o.procs;
  if (o.population) s.population = *o.population;
  if (o.batch) s.batch = *o.batch;
  if (o.seed) s.seed = *o.seed;
  return s;
}

/// The canonical configuration string hashed into the manifest: every
/// selected figure's identity, scale, axes, and cell count. Excludes
/// shard/thread/host details so shard manifests agree.
std::string config_string(
    const std::vector<std::pair<const exp::FigureDef*, exp::FigScale>>& figs) {
  std::string text;
  for (const auto& [fig, scale] : figs) {
    exp::Sweep sweep = fig->build(scale);
    text += fig->id + "{tasks=" + std::to_string(scale.tasks) +
            ",procs=" + std::to_string(scale.procs) +
            ",reps=" + std::to_string(scale.reps) +
            ",generations=" + std::to_string(scale.generations) +
            ",population=" + std::to_string(scale.population) +
            ",batch=" + std::to_string(scale.batch) +
            ",seed=" + std::to_string(scale.seed) + ",axes=";
    for (const auto& axis : sweep.axis_names()) text += axis + "|";
    text += ",cells=" + std::to_string(sweep.cell_count()) + "}";
  }
  return text;
}

struct FigOutcome {
  const exp::FigureDef* fig = nullptr;
  std::size_t cells = 0, executed = 0, skipped = 0, failed = 0;
  std::string report;  ///< rendered shape-check report (may be empty)
};

/// Pulls "key":"value" out of a manifest written by write_manifest (the
/// tool never needs a general JSON parser for its own files).
std::string manifest_string_field(const fs::path& manifest,
                                  const std::string& key) {
  std::ifstream in(manifest);
  std::ostringstream ss;
  ss << in.rdbuf();
  const std::string text = ss.str();
  const std::string needle = "\"" + key + "\":\"";
  const std::size_t at = text.find(needle);
  if (at == std::string::npos) return "";
  const std::size_t start = at + needle.size();
  const std::size_t end = text.find('"', start);
  return end == std::string::npos ? "" : text.substr(start, end - start);
}

/// `status` is "running" (written before the first sweep, so even a
/// killed run leaves provenance for --resume to verify) or "complete".
void write_manifest(const fs::path& path, const RunOptions& o,
                    const std::string& config_hash,
                    const std::vector<FigOutcome>& outcomes,
                    const std::string& status) {
  util::JsonWriter w;
  w.begin_object();
  w.key("tool").string("figset");
  w.key("status").string(status);
  w.key("git_sha").string(git_sha());
  w.key("config_hash").string(config_hash);
  w.key("threads").number(util::global_pool().size());
  w.key("scale").string(o.full ? "full" : "quick");
  if (o.shard_count > 1) {
    w.key("shard").begin_object();
    w.key("index").number(o.shard_index);
    w.key("count").number(o.shard_count);
    w.end_object();
  }
  std::size_t total = 0, executed = 0, failed = 0;
  w.key("figures").begin_array();
  for (const auto& r : outcomes) {
    total += r.cells;
    executed += r.executed;
    failed += r.failed;
    w.begin_object();
    w.key("id").string(r.fig->id);
    w.key("cells").number(r.cells);
    w.key("executed").number(r.executed);
    w.key("skipped").number(r.skipped);
    w.key("failed").number(r.failed);
    w.key("csv").string(r.fig->id + ".csv");
    w.key("jsonl").string(r.fig->id + ".jsonl");
    w.end_object();
  }
  w.end_array();
  w.key("total_cells").number(total);
  w.key("total_executed").number(executed);
  w.key("total_failed").number(failed);
  w.end_object();

  std::ofstream out(path, std::ios::trunc);
  out << w.str() << "\n";
}

int cmd_run(const util::Cli& cli) {
  if (!flags_known(cli, {"out", "only", "tag", "full", "serial", "resume",
                         "no-report", "shard", "tasks", "reps", "generations",
                         "procs", "population", "batch", "seed"})) {
    return 2;
  }
  RunOptions o;
  o.out = cli.get("out", "figset_out");
  o.only = cli.get("only", "");
  o.tag = cli.get("tag", "");
  o.full = util::bench_full_scale() || cli.get_bool("full", false);
  o.serial = cli.get_bool("serial", false);
  o.resume = cli.get_bool("resume", false);
  o.report = !cli.get_bool("no-report", false);
  const std::string shard = cli.get("shard", "");
  if (!shard.empty()) {
    try {
      std::tie(o.shard_index, o.shard_count) = exp::parse_shard_spec(shard);
    } catch (const std::exception& e) {
      std::cerr << "figset: " << e.what() << "\n";
      return 2;
    }
  }
  try {
    for (const auto& [name, slot] :
         {std::pair<const char*, std::optional<std::size_t>*>{"tasks",
                                                              &o.tasks},
          {"reps", &o.reps},
          {"generations", &o.generations},
          {"procs", &o.procs},
          {"population", &o.population},
          {"batch", &o.batch}}) {
      if (cli.has(name)) *slot = cli.get_size(name, 0);
    }
    if (cli.has("seed")) o.seed = cli.get_size("seed", 0);
  } catch (const std::runtime_error& e) {
    std::cerr << "figset: " << e.what() << "\n";
    return 2;
  }

  const auto selected = exp::FigSet::instance().select(o.only, o.tag);
  if (selected.empty()) {
    std::cerr << "figset: no figures match --only '" << o.only << "' --tag '"
              << o.tag << "' (try: figset list)\n";
    return 2;
  }

  std::vector<std::pair<const exp::FigureDef*, exp::FigScale>> figs;
  for (const auto* fig : selected) {
    figs.emplace_back(fig, resolve_scale(*fig, o));
  }
  const std::string config_hash = fnv1a_hex(config_string(figs));

  // Resuming into an output directory produced by a *different*
  // configuration would silently keep stale rows (the CSV schema cannot
  // encode scale/seed); the manifest's config hash can, so check it.
  const fs::path manifest_path = o.out / "manifest.json";
  if (o.resume && fs::exists(manifest_path)) {
    const std::string previous =
        manifest_string_field(manifest_path, "config_hash");
    if (!previous.empty() && previous != config_hash) {
      std::cerr << "figset: cannot resume into " << o.out.string()
                << ": its manifest records config " << previous
                << " but this invocation is config " << config_hash
                << " (different figures, scale, or seed).\n"
                << "Re-run with the original options, or use a fresh "
                   "--out.\n";
      return 1;
    }
  }

  fs::create_directories(o.out);

  SuiteProgress progress;
  progress.fig_count = figs.size();
  std::vector<FigOutcome> planned;
  for (const auto& [fig, scale] : figs) {
    FigOutcome p;
    p.fig = fig;
    p.cells = fig->build(scale).cell_count();
    planned.push_back(p);
    progress.cells_total += p.cells;
  }
  // Written up front so a killed run still records what it was doing —
  // the hash above is what a later --resume validates against.
  write_manifest(manifest_path, o, config_hash, planned, "running");

  std::cout << "figset: " << figs.size() << " figures, "
            << progress.cells_total << " cells ("
            << (o.full ? "full" : "quick") << " scale";
  if (o.shard_count > 1) {
    std::cout << ", shard " << o.shard_index << "/" << o.shard_count;
  }
  if (o.resume) std::cout << ", resuming";
  std::cout << ") -> " << o.out.string() << "\n";

  const metrics::SinkMode mode =
      o.resume ? metrics::SinkMode::kResume : metrics::SinkMode::kTruncate;
  std::vector<FigOutcome> outcomes;
  int exit_code = 0;
  for (std::size_t fi = 0; fi < figs.size(); ++fi) {
    const auto& [fig, scale] = figs[fi];
    progress.fig = fig->id;
    progress.fig_index = fi + 1;
    progress.print();

    exp::Sweep sweep = fig->build(scale);
    sweep.parallel(!o.serial).progress(false);
    if (o.shard_count > 1) sweep.shard(o.shard_index, o.shard_count);

    metrics::CsvSink csv(o.out / (fig->id + ".csv"), mode);
    metrics::JsonlSink jsonl(o.out / (fig->id + ".jsonl"), mode);
    ProgressSink prog(progress);
    sweep.add_sink(csv).add_sink(jsonl).add_sink(prog);

    exp::SweepResult result;
    try {
      result = sweep.run();
    } catch (const std::exception& e) {
      progress.finish();
      std::cerr << "figset: " << fig->id << ": " << e.what() << "\n";
      return 1;
    }
    progress.cells_skipped += result.skipped;
    progress.print();

    FigOutcome outcome;
    outcome.fig = fig;
    outcome.cells = result.rows.size();
    outcome.skipped = result.skipped;
    outcome.executed = result.rows.size() - result.skipped;
    outcome.failed = result.failed;
    if (o.report && fig->report && result.skipped == 0 &&
        result.failed == 0) {
      std::ostringstream report;
      fig->report(result, scale, report);
      outcome.report = report.str();
    }
    outcomes.push_back(std::move(outcome));
    if (result.failed > 0) exit_code = 1;
  }
  progress.finish();

  write_manifest(manifest_path, o, config_hash, outcomes, "complete");

  for (const auto& r : outcomes) {
    std::cout << r.fig->id << " (" << r.fig->number << ", "
              << r.fig->paper_section << "): " << r.executed << "/"
              << r.cells << " cells";
    if (r.skipped > 0) std::cout << ", " << r.skipped << " skipped";
    if (r.failed > 0) std::cout << ", " << r.failed << " FAILED";
    std::cout << " -> " << r.fig->id << ".csv\n";
  }
  for (const auto& r : outcomes) {
    if (r.report.empty()) {
      if (o.report && r.fig->report && r.failed == 0 && r.skipped > 0) {
        std::cout << r.fig->id
                  << ": shape-check report omitted (cells were resumed or "
                     "off-shard; re-derive it from the merged/complete CSV "
                     "or re-run unsharded)\n";
      }
      continue;
    }
    std::cout << "\n=== " << r.fig->number << ": " << r.fig->title
              << " ===\n"
              << r.report;
  }
  std::cout << "\nmanifest: " << (o.out / "manifest.json").string()
            << " (config " << config_hash << ")\n";
  if (exit_code != 0) {
    std::cerr << "figset: some cells failed — see the error column in the "
                 "CSVs\n";
  }
  return exit_code;
}

// --- list -------------------------------------------------------------------

/// Markdown cell escape: keep the table well-formed whatever the
/// registry strings contain.
std::string md_escape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (const char c : s) {
    if (c == '|') out += "\\|";
    else if (c == '\n') out += ' ';
    else out += c;
  }
  return out;
}

/// The figure ↔ bench ↔ grid table as GitHub markdown — the generated
/// region of docs/figures.md (scripts/check_figures_doc.sh regenerates
/// and diffs it in CI, so the doc cannot drift from the registry).
/// The bench column is the bench/<id>_*.cpp wrapper stem, discovered
/// from --bench-dir when the source tree is visible; suite-only
/// registrations with no wrapper fall back to an em dash.
int cmd_list_markdown(const util::Cli& cli) {
  const fs::path bench_dir = cli.get("bench-dir", "bench");
  std::cout << "| FigSet id | Bench binary | Paper § | Tags | Axes "
               "| Cells (quick / full) | Shape check |\n"
               "|-----------|--------------|---------|------|------"
               "|----------------------|-------------|\n";
  for (const auto& fig : exp::FigSet::instance().figures()) {
    std::string bench;
    if (fs::is_directory(bench_dir)) {
      std::vector<std::string> stems;
      for (const auto& entry : fs::directory_iterator(bench_dir)) {
        const std::string stem = entry.path().stem().string();
        if (entry.path().extension() == ".cpp" &&
            stem.rfind(fig.id + "_", 0) == 0) {
          stems.push_back(stem);
        }
      }
      std::sort(stems.begin(), stems.end());  // directory order is unspecified
      if (!stems.empty()) bench = stems.front();
    }
    std::string tags;
    for (const auto& tag : fig.tags) {
      if (!tags.empty()) tags += ", ";
      tags += tag;
    }
    const exp::Sweep quick = fig.build(fig.scale(false));
    const exp::Sweep full = fig.build(fig.scale(true));
    std::string axes;
    for (const auto& axis : quick.axis_names()) {
      if (!axes.empty()) axes += " × ";
      axes += "`" + axis + "`";
    }
    std::cout << "| `" << fig.id << "` | "
              << (bench.empty() ? std::string("—") : "`" + bench + "`")
              << " | " << md_escape(fig.paper_section) << " | "
              << md_escape(tags) << " | " << axes << " | "
              << quick.cell_count() << " / " << full.cell_count() << " | "
              << md_escape(fig.paper_expectation) << " |\n";
  }
  return 0;
}

int cmd_list(const util::Cli& cli) {
  if (!flags_known(cli, {"markdown", "bench-dir"})) return 2;
  if (cli.get_bool("markdown", false)) return cmd_list_markdown(cli);
  util::Table table({"id", "paper", "section", "tags", "cells(quick)",
                     "title"});
  for (const auto& fig : exp::FigSet::instance().figures()) {
    std::string tags;
    for (const auto& tag : fig.tags) {
      if (!tags.empty()) tags += ",";
      tags += tag;
    }
    const exp::Sweep sweep = fig.build(fig.scale(false));
    table.add_row({fig.id, fig.number, fig.paper_section, tags,
                   std::to_string(sweep.cell_count()), fig.title});
  }
  table.print(std::cout);
  std::cout << "\nRun a subset: figset run --only 'fig0[5-9]' or --tag "
               "makespan. Details: docs/figures.md\n";
  return 0;
}

// --- plot -------------------------------------------------------------------

/// Emits the gnuplot + matplotlib scripts for every selected figure into
/// --out, next to the CSVs a `figset run` left there. Pure emission from
/// the registry (no sweep runs): scripts reference the CSV by relative
/// name, so `cd OUT && gnuplot figNN.gp` (or python3 figNN.py) renders
/// figNN.png. Warns when a figure's CSV is not present yet.
int cmd_plot(const util::Cli& cli) {
  if (!flags_known(cli, {"out", "only", "tag", "full"})) return 2;
  const fs::path out = cli.get("out", "figset_out");
  const auto selected = exp::FigSet::instance().select(cli.get("only", ""),
                                                       cli.get("tag", ""));
  if (selected.empty()) {
    std::cerr << "figset plot: no figures match --only '"
              << cli.get("only", "") << "' --tag '" << cli.get("tag", "")
              << "' (try: figset list)\n";
    return 2;
  }
  const bool full = util::bench_full_scale() || cli.get_bool("full", false);
  for (const auto* fig : selected) {
    const auto paths = exp::write_plot_scripts(*fig, fig->scale(full), out);
    std::cout << fig->id << ": ";
    for (std::size_t i = 0; i < paths.size(); ++i) {
      std::cout << paths[i].filename().string()
                << (i + 1 < paths.size() ? " + " : "");
    }
    if (!fs::exists(out / (fig->id + ".csv"))) {
      std::cout << "  (no " << fig->id << ".csv here yet — run `figset run "
                << "--out " << out.string() << "` first)";
    }
    std::cout << "\n";
  }
  std::cout << "plot scripts -> " << out.string()
            << " (gnuplot *.gp / python3 *.py from inside that directory)\n";
  return 0;
}

// --- merge ------------------------------------------------------------------

int cmd_merge(const util::Cli& cli,
              const std::vector<std::string>& shard_dirs) {
  if (!flags_known(cli, {"out"})) return 2;
  if (!cli.has("out") || shard_dirs.size() < 2) {
    std::cerr << "usage: figset merge --out DIR SHARD_DIR SHARD_DIR...\n";
    return 2;
  }
  const fs::path out = cli.get("out", "");

  // Shards must describe the same configuration.
  std::string config_hash;
  for (const auto& dir : shard_dirs) {
    const std::string hash =
        manifest_string_field(fs::path(dir) / "manifest.json", "config_hash");
    if (hash.empty()) continue;  // tolerate missing manifests
    if (config_hash.empty()) {
      config_hash = hash;
    } else if (hash != config_hash) {
      std::cerr << "figset merge: " << dir << " has config hash " << hash
                << " but earlier shards have " << config_hash
                << " — these outputs are from different configurations\n";
      return 1;
    }
  }

  // Merge the union of figure files across all shard dirs: every shard
  // runs every selected figure, so a figure missing from any one shard
  // means incomplete inputs — fail rather than emit a partial file.
  std::set<std::string> stems;
  for (const auto& dir : shard_dirs) {
    if (!fs::is_directory(dir)) {
      std::cerr << "figset merge: " << dir << " is not a directory\n";
      return 1;
    }
    for (const auto& entry : fs::directory_iterator(dir)) {
      if (entry.path().extension() == ".csv") {
        stems.insert(entry.path().stem().string());
      }
    }
  }
  if (stems.empty()) {
    std::cerr << "figset merge: no CSV files in any shard directory\n";
    return 1;
  }

  fs::create_directories(out);
  try {
    for (const auto& stem : stems) {
      std::vector<fs::path> csvs, jsonls;
      for (const auto& dir : shard_dirs) {
        const fs::path csv = fs::path(dir) / (stem + ".csv");
        if (!fs::exists(csv)) {
          throw std::runtime_error("shard " + dir + " is missing " + stem +
                                   ".csv");
        }
        csvs.push_back(csv);
        const fs::path jsonl = fs::path(dir) / (stem + ".jsonl");
        if (fs::exists(jsonl)) jsonls.push_back(jsonl);
      }
      exp::merge_csv_shards(csvs, out / (stem + ".csv"));
      if (!jsonls.empty() && jsonls.size() != shard_dirs.size()) {
        throw std::runtime_error(
            stem + ".jsonl exists in only " + std::to_string(jsonls.size()) +
            " of " + std::to_string(shard_dirs.size()) +
            " shards — merged wall-clock data would be incomplete");
      }
      if (!jsonls.empty()) {
        exp::merge_jsonl_shards(jsonls, out / (stem + ".jsonl"));
      }
      std::cout << "merged " << stem << " from " << csvs.size()
                << " shards\n";
    }
  } catch (const std::exception& e) {
    std::cerr << "figset merge: " << e.what() << "\n";
    return 1;
  }

  util::JsonWriter w;
  w.begin_object();
  w.key("tool").string("figset merge");
  w.key("git_sha").string(git_sha());
  if (!config_hash.empty()) w.key("config_hash").string(config_hash);
  w.key("merged_from").begin_array();
  for (const auto& dir : shard_dirs) w.string(dir);
  w.end_array();
  w.key("figures").begin_array();
  for (const auto& stem : stems) w.string(stem);
  w.end_array();
  w.end_object();
  std::ofstream manifest(out / "manifest.json", std::ios::trunc);
  manifest << w.str() << "\n";
  std::cout << "merged output -> " << out.string() << "\n";
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const util::Cli cli(argc, argv, {"help", "h", "full", "serial", "resume",
                                   "no-report", "markdown"});
  std::vector<std::string> positional = cli.positional();
  std::string command = "run";
  if (!positional.empty()) {
    command = positional.front();
    positional.erase(positional.begin());
  }
  try {
    if (cli.get_bool("help", false) || cli.get_bool("h", false)) {
      return usage(std::cout, 0);
    }
    // A declared boolean never takes a value from the next argument, so
    // `--serial 0` leaves a stray "0" here; it must not be ignored.
    if (command != "merge" && !positional.empty()) {
      std::cerr << "figset: unexpected argument '" << positional.front()
                << "'\n";
      return 2;
    }
    if (command == "run") return cmd_run(cli);
    if (command == "list") return cmd_list(cli);
    if (command == "plot") return cmd_plot(cli);
    if (command == "merge") return cmd_merge(cli, positional);
  } catch (const std::exception& e) {
    std::cerr << "figset: " << e.what() << "\n";
    return 1;
  }
  std::cerr << "figset: unknown command '" << command << "'\n\n";
  return usage(std::cerr, 2);
}
