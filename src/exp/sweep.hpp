#pragma once
/// \file
/// Declarative experiment grids. A Sweep is the first-class object
/// behind every figure, ablation, and scenario comparison: named axes
/// (scheduler sets by name or registry tag, workload families, scalar
/// parameter ranges), flattened to a job list of cells and executed on
/// util::global_pool() with cell-level *and* replication-level
/// parallelism. Invariants the rest of the repo builds on:
///
///  - **Deterministic job order.** flatten() decomposes the axes
///    row-major in declaration order (first axis varies slowest), so the
///    job list — and therefore every cell index, CSV row order, shard
///    partition, and resume key — is a pure function of the declaration,
///    identical on every machine and thread count.
///  - **Deterministic results.** Every cell's replications derive their
///    RNG streams from (scenario.seed, rep), never from execution order,
///    so re-running a cell (e.g. after a crash) reproduces it exactly.
///  - **Ordered streaming.** Rows stream to the attached
///    metrics::ResultSink instances in job-list order as completed
///    prefixes; a killed sweep keeps every flushed row.
///  - **Per-cell error capture.** A failed cell (factory error, bad
///    parameters) becomes a row carrying the error string; the rest of
///    the grid still runs.
///  - **Resume and sharding compose with all of the above.** Cells
///    already present in every resumable sink are skipped, and
///    shard(i, N) restricts execution to a deterministic subset of the
///    job list; skipped cells yield rows flagged `skipped` that are
///    never delivered to sinks, so resumed/merged files end up
///    byte-identical to a fresh single-machine run.
///
/// Typical use (the whole of a former 60-line bench main loop):
///
///   exp::Sweep sweep("fig06");
///   sweep.base(scenario).params(opts).schedulers(exp::all_schedulers());
///   metrics::TableSink table(std::cout);
///   sweep.add_sink(table);
///   const exp::SweepResult r = sweep.run();

#include <cstddef>
#include <functional>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "exp/scenario.hpp"
#include "metrics/sink.hpp"

namespace gasched::exp {

/// One flattened grid cell: a fully-resolved scenario, scheduler, and
/// parameter set, plus the axis coordinates that produced it.
struct SweepCell {
  std::size_t index = 0;  ///< position in the job list (deterministic)
  Scenario scenario;
  std::string scheduler;  ///< canonical registry name; may be empty
  SchedulerParams params;
  /// (axis, label) pairs in axis order.
  std::vector<std::pair<std::string, std::string>> coords;

  /// Label of `axis`; throws std::out_of_range when the axis is unknown.
  const std::string& coord(const std::string& axis) const;
  /// Label of `axis` parsed as a double (throws on unknown axis or
  /// non-numeric label).
  double coord_value(const std::string& axis) const;
};

/// What one executed cell yields: the aggregated replications plus any
/// custom columns a bespoke runner wants to surface.
struct CellOutcome {
  metrics::CellSummary summary;
  std::vector<std::pair<std::string, double>> extras;
};

/// Computes one cell. `parallel` mirrors the sweep's execution mode:
/// runners that replicate internally should parallelise (e.g. via
/// run_replications or ThreadPool::parallel_for, both safe to nest)
/// exactly when it is true, and must produce results that do not depend
/// on it. The default runner is run_replications + metrics::aggregate.
using CellRunner =
    std::function<CellOutcome(const SweepCell& cell, bool parallel)>;

/// Everything a finished sweep produced, in job-list order.
struct SweepResult {
  metrics::SweepHeader header;
  std::vector<metrics::SweepRow> rows;
  std::size_t failed = 0;   ///< number of rows with a non-empty error
  std::size_t skipped = 0;  ///< cells not executed (resumed / off-shard)

  /// Mean makespan per row (NaN-free: failed rows report 0).
  std::vector<double> makespan_means() const;
  /// Rows whose coordinate on `axis` equals `label`, in order.
  std::vector<const metrics::SweepRow*> where(
      const std::string& axis, const std::string& label) const;
};

/// Declarative experiment grid; see the file comment for an example.
/// Axes flatten row-major in declaration order (first axis varies
/// slowest), so declare the presentation-outer axis first.
class Sweep {
 public:
  explicit Sweep(std::string name = "sweep");

  /// Prototype scenario every cell starts from.
  Sweep& base(Scenario s);
  /// Prototype scheduler parameters every cell starts from.
  Sweep& params(SchedulerParams p);
  /// Fixed scheduler for every cell (no axis). Resolved eagerly.
  Sweep& scheduler(const std::string& name);
  /// Adds a "scheduler" axis over the given registry names (resolved
  /// eagerly, so typos fail at declaration with the full name list).
  Sweep& schedulers(const std::vector<std::string>& names);

  /// One point on a labeled axis. `apply` may be empty for axes that
  /// only label custom-runner cells.
  struct Value {
    std::string label;
    std::function<void(SweepCell&)> apply;
  };
  /// Adds a labeled axis.
  Sweep& axis(std::string axis_name, std::vector<Value> values);
  /// Adds a numeric axis: apply(cell, v) runs for each value, labels are
  /// round-trip formatted.
  Sweep& axis(std::string axis_name, const std::vector<double>& values,
              std::function<void(SweepCell&, double)> apply);
  /// Adds a numeric axis over a [scheduler] parameter key.
  Sweep& param_axis(const std::string& key,
                    const std::vector<double>& values);
  /// Adds a "workload" axis over named workload specs (each cell's
  /// scenario.workload is replaced wholesale; count is preserved).
  Sweep& workloads(
      std::vector<std::pair<std::string, WorkloadSpec>> specs);

  /// Replaces the default cell runner (run_replications + aggregate).
  /// Each run() calls a fresh copy of `fn`, so state it captures by
  /// value (extgap's BoundMemo) lives for one run.
  Sweep& runner(CellRunner fn);
  /// Declares the extras columns custom runners emit, so streaming sinks
  /// can fix their schema before the first row.
  Sweep& extra_columns(std::vector<std::string> names);
  /// Attaches a sink (non-owning; must outlive run()).
  Sweep& add_sink(metrics::ResultSink& sink);
  /// Enables/disables execution on util::global_pool(). Results are
  /// identical either way; serial mode exists for baselines and tests.
  Sweep& parallel(bool on);
  /// Restricts execution to shard `index` of `count`: only cells whose
  /// job-list index ≡ index (mod count) run; the rest become `skipped`
  /// rows that are never delivered to sinks. Because the job list is
  /// deterministic, N machines running shards 0..N-1 produce disjoint
  /// row sets whose union is exactly the unsharded run (stitch them with
  /// figset merge). Throws std::invalid_argument when index >= count or
  /// count == 0.
  Sweep& shard(std::size_t index, std::size_t count);
  /// Forces the stderr progress line on or off (default: only when
  /// stderr is a terminal).
  Sweep& progress(bool on);

  const std::string& name() const noexcept { return name_; }
  std::size_t cell_count() const;
  std::vector<std::string> axis_names() const;
  /// The extras columns declared via extra_columns() (figset plot and
  /// tests derive the CSV schema from these + the axes).
  const std::vector<std::string>& extra_column_names() const noexcept {
    return extra_columns_;
  }
  /// The deterministic job list (exposed for tests and inspection).
  std::vector<SweepCell> flatten() const;

  /// Executes the grid and streams rows to the attached sinks.
  ///
  /// Resume: after begin(), cells whose index is present in *every*
  /// non-passive sink (ResultSink::resumed() != nullptr — the file
  /// sinks; see SinkMode::kResume) are skipped instead of executed, so
  /// an interrupted run continues where its output files stop and the
  /// final files are byte-identical to an uninterrupted run. Cells held
  /// by only some file sinks are re-executed (deterministically equal)
  /// and each sink drops rows it already has.
  SweepResult run() const;

 private:
  struct Axis {
    std::string name;
    std::vector<Value> values;
  };

  std::string name_;
  Scenario base_;
  SchedulerParams params_;
  std::string fixed_scheduler_;
  std::vector<Axis> axes_;
  CellRunner runner_;
  std::vector<std::string> extra_columns_;
  std::vector<metrics::ResultSink*> sinks_;
  bool parallel_ = true;
  std::optional<bool> progress_;
  std::size_t shard_index_ = 0;
  std::size_t shard_count_ = 1;
};

}  // namespace gasched::exp
