#include "exp/sweep.hpp"

#include <atomic>
#include <cstdio>
#include <mutex>
#include <set>
#include <stdexcept>

#include "exp/registry.hpp"
#include "exp/runner.hpp"
#include "util/csv.hpp"
#include "util/thread_pool.hpp"

#if defined(__unix__) || defined(__APPLE__)
#include <unistd.h>
#endif

namespace gasched::exp {

namespace {

bool stderr_is_tty() {
#if defined(__unix__) || defined(__APPLE__)
  return isatty(fileno(stderr)) != 0;
#else
  return false;
#endif
}

}  // namespace

// --- SweepCell --------------------------------------------------------------

const std::string& SweepCell::coord(const std::string& axis) const {
  for (const auto& [name, label] : coords) {
    if (name == axis) return label;
  }
  throw std::out_of_range("SweepCell: unknown axis '" + axis + "'");
}

double SweepCell::coord_value(const std::string& axis) const {
  const std::string& label = coord(axis);
  try {
    std::size_t pos = 0;
    const double v = std::stod(label, &pos);
    if (pos != label.size()) throw std::invalid_argument(label);
    return v;
  } catch (const std::exception&) {
    throw std::runtime_error("SweepCell: axis '" + axis + "' label '" +
                             label + "' is not numeric");
  }
}

// --- SweepResult ------------------------------------------------------------

std::vector<double> SweepResult::makespan_means() const {
  std::vector<double> out;
  out.reserve(rows.size());
  for (const auto& r : rows) out.push_back(r.cell.makespan.mean);
  return out;
}

std::vector<const metrics::SweepRow*> SweepResult::where(
    const std::string& axis, const std::string& label) const {
  std::vector<const metrics::SweepRow*> out;
  for (const auto& r : rows) {
    for (const auto& [name, value] : r.coords) {
      if (name == axis && value == label) {
        out.push_back(&r);
        break;
      }
    }
  }
  return out;
}

// --- Sweep: declaration -----------------------------------------------------

Sweep::Sweep(std::string name) : name_(std::move(name)) {}

Sweep& Sweep::base(Scenario s) {
  base_ = std::move(s);
  return *this;
}

Sweep& Sweep::params(SchedulerParams p) {
  params_ = std::move(p);
  return *this;
}

Sweep& Sweep::scheduler(const std::string& name) {
  fixed_scheduler_ = SchedulerRegistry::instance().canonical_name(name);
  return *this;
}

Sweep& Sweep::schedulers(const std::vector<std::string>& names) {
  std::vector<Value> values;
  values.reserve(names.size());
  for (const auto& raw : names) {
    const std::string canonical =
        SchedulerRegistry::instance().canonical_name(raw);
    values.push_back(
        {canonical, [canonical](SweepCell& c) { c.scheduler = canonical; }});
  }
  return axis("scheduler", std::move(values));
}

Sweep& Sweep::axis(std::string axis_name, std::vector<Value> values) {
  if (values.empty()) {
    throw std::invalid_argument("Sweep: axis '" + axis_name +
                                "' has no values");
  }
  for (const auto& existing : axes_) {
    if (existing.name == axis_name) {
      throw std::invalid_argument("Sweep: duplicate axis '" + axis_name +
                                  "'");
    }
  }
  axes_.push_back({std::move(axis_name), std::move(values)});
  return *this;
}

Sweep& Sweep::axis(std::string axis_name, const std::vector<double>& values,
                   std::function<void(SweepCell&, double)> apply) {
  std::vector<Value> labeled;
  labeled.reserve(values.size());
  for (const double v : values) {
    labeled.push_back({util::format_double(v),
                       [apply, v](SweepCell& c) {
                         if (apply) apply(c, v);
                       }});
  }
  return axis(std::move(axis_name), std::move(labeled));
}

Sweep& Sweep::param_axis(const std::string& key,
                         const std::vector<double>& values) {
  return axis(key, values,
              [key](SweepCell& c, double v) { c.params.set(key, v); });
}

Sweep& Sweep::workloads(
    std::vector<std::pair<std::string, WorkloadSpec>> specs) {
  std::vector<Value> values;
  values.reserve(specs.size());
  for (auto& [label, spec] : specs) {
    WorkloadSpec copy = spec;
    values.push_back({label, [copy](SweepCell& c) {
                        const std::size_t count = c.scenario.workload.count;
                        c.scenario.workload = copy;
                        c.scenario.workload.count = count;
                      }});
  }
  return axis("workload", std::move(values));
}

Sweep& Sweep::runner(CellRunner fn) {
  runner_ = std::move(fn);
  return *this;
}

Sweep& Sweep::extra_columns(std::vector<std::string> names) {
  extra_columns_ = std::move(names);
  return *this;
}

Sweep& Sweep::add_sink(metrics::ResultSink& sink) {
  sinks_.push_back(&sink);
  return *this;
}

Sweep& Sweep::parallel(bool on) {
  parallel_ = on;
  return *this;
}

Sweep& Sweep::shard(std::size_t index, std::size_t count) {
  if (count == 0 || index >= count) {
    throw std::invalid_argument("Sweep: invalid shard " +
                                std::to_string(index) + "/" +
                                std::to_string(count));
  }
  shard_index_ = index;
  shard_count_ = count;
  return *this;
}

Sweep& Sweep::progress(bool on) {
  progress_ = on;
  return *this;
}

std::size_t Sweep::cell_count() const {
  std::size_t n = 1;
  for (const auto& axis : axes_) n *= axis.values.size();
  return n;
}

std::vector<std::string> Sweep::axis_names() const {
  std::vector<std::string> names;
  names.reserve(axes_.size());
  for (const auto& axis : axes_) names.push_back(axis.name);
  return names;
}

std::vector<SweepCell> Sweep::flatten() const {
  const std::size_t total = cell_count();
  std::vector<SweepCell> cells;
  cells.reserve(total);
  for (std::size_t index = 0; index < total; ++index) {
    SweepCell cell;
    cell.index = index;
    cell.scenario = base_;
    cell.scheduler = fixed_scheduler_;
    cell.params = params_;
    // Row-major decomposition: the first axis varies slowest.
    std::size_t stride = total;
    for (const auto& axis : axes_) {
      stride /= axis.values.size();
      const Value& value = axis.values[(index / stride) % axis.values.size()];
      cell.coords.emplace_back(axis.name, value.label);
      if (value.apply) value.apply(cell);
    }
    cells.push_back(std::move(cell));
  }
  return cells;
}

// --- Sweep: execution -------------------------------------------------------

namespace {

CellOutcome default_cell_runner(const SweepCell& cell, bool parallel) {
  if (cell.scheduler.empty()) {
    throw std::runtime_error(
        "sweep cell has no scheduler: declare schedulers()/scheduler() or "
        "a custom runner");
  }
  CellOutcome out;
  out.summary = run_cell(cell.scenario, cell.scheduler, cell.params, parallel);
  return out;
}

}  // namespace

SweepResult Sweep::run() const {
  const std::vector<SweepCell> cells = flatten();

  SweepResult result;
  result.header = {name_, axis_names(), extra_columns_};
  result.rows.resize(cells.size());

  for (auto* sink : sinks_) sink->begin(result.header);

  // Resume: cells already present in EVERY non-passive sink need not be
  // re-executed — each of their files already holds the row. Cells held
  // by only some sinks re-run (deterministically identical) and the
  // sinks that have them drop the duplicate delivery themselves.
  std::set<std::size_t> resume_skip;
  bool first_resumable = true;
  for (auto* sink : sinks_) {
    const std::set<std::size_t>* have = sink->resumed();
    if (have == nullptr) continue;  // passive sink (table, progress)
    if (first_resumable) {
      resume_skip = *have;
      first_resumable = false;
    } else {
      std::set<std::size_t> kept;
      for (const std::size_t i : resume_skip) {
        if (have->count(i) > 0) kept.insert(i);
      }
      resume_skip = std::move(kept);
    }
  }

  const bool show_progress = progress_.value_or(stderr_is_tty());
  // Sink/progress state. `done` marks completed cells; rows stream to
  // the sinks as the completed prefix extends, so output order is the
  // job-list order no matter which thread finishes first, and a killed
  // sweep keeps every flushed cell.
  std::mutex mu;
  std::vector<char> done(cells.size(), 0);
  std::size_t next_flush = 0;
  std::size_t completed = 0;

  // Pre-mark skipped cells (off-shard or resumed): their rows carry the
  // coordinates but no data and are never delivered to sinks.
  std::vector<std::size_t> to_run;
  to_run.reserve(cells.size());
  for (std::size_t i = 0; i < cells.size(); ++i) {
    const bool on_shard = (i % shard_count_) == shard_index_;
    if (on_shard && resume_skip.count(i) == 0) {
      to_run.push_back(i);
      continue;
    }
    result.rows[i].index = i;
    result.rows[i].coords = cells[i].coords;
    result.rows[i].scheduler = cells[i].scheduler;
    result.rows[i].skipped = true;
    done[i] = 1;
    ++result.skipped;
  }

  auto flush_ready = [&] {
    // Caller holds `mu` (or is still single-threaded before execution).
    while (next_flush < cells.size() && done[next_flush]) {
      if (!result.rows[next_flush].skipped) {
        for (auto* sink : sinks_) sink->row(result.rows[next_flush]);
      }
      ++next_flush;
    }
  };
  flush_ready();  // advance past any leading skipped cells

  const CellRunner runner = runner_;  // a fresh copy: per-run runner state
  auto run_cell_at = [&](std::size_t job) {
    const std::size_t i = to_run[job];
    metrics::SweepRow row;
    row.index = i;
    row.coords = cells[i].coords;
    row.scheduler = cells[i].scheduler;
    try {
      CellOutcome out = runner ? runner(cells[i], parallel_)
                                : default_cell_runner(cells[i], parallel_);
      row.cell = std::move(out.summary);
      row.extras = std::move(out.extras);
    } catch (const std::exception& e) {
      row.error = e.what();
    } catch (...) {
      row.error = "unknown error";
    }

    std::lock_guard lk(mu);
    result.rows[i] = std::move(row);
    done[i] = 1;
    ++completed;
    if (!result.rows[i].ok()) ++result.failed;
    flush_ready();
    if (show_progress) {
      std::fprintf(stderr, "\r[%s] %zu/%zu cells", name_.c_str(), completed,
                   to_run.size());
      if (result.skipped > 0) {
        std::fprintf(stderr, " (%zu skipped)", result.skipped);
      }
      if (result.failed > 0) {
        std::fprintf(stderr, " (%zu failed)", result.failed);
      }
      std::fflush(stderr);
    }
  };

  util::for_each_index(to_run.size(), parallel_, run_cell_at);

  if (show_progress && !to_run.empty()) std::fprintf(stderr, "\n");
  for (auto* sink : sinks_) sink->end();
  return result;
}

}  // namespace gasched::exp
