#include "metrics/sink.hpp"

#include <algorithm>
#include <cctype>
#include <fstream>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string_view>

#include "metrics/report_json.hpp"
#include "util/json.hpp"
#include "util/parse.hpp"
#include "util/table.hpp"

namespace gasched::metrics {

namespace {

std::string slurp(const std::filesystem::path& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

}  // namespace

double SweepRow::extra(const std::string& column, double fallback) const {
  for (const auto& [name, value] : extras) {
    if (name == column) return value;
  }
  return fallback;
}

void ResultSink::begin(const SweepHeader&) {}
void ResultSink::end() {}

// --- TableSink --------------------------------------------------------------

TableSink::TableSink(std::ostream& os) : os_(os) {}

void TableSink::begin(const SweepHeader& header) { header_ = header; }

void TableSink::row(const SweepRow& row) { rows_.push_back(row); }

void TableSink::end() {
  bool any_scheduler = false, any_error = false;
  bool makespan = false, efficiency = false, response = false, wall = false,
       invocations = false, requeued = false;
  // When "scheduler" is an axis its coordinate column already names the
  // scheduler; don't repeat it.
  const bool scheduler_is_axis =
      std::find(header_.axes.begin(), header_.axes.end(), "scheduler") !=
      header_.axes.end();
  for (const auto& r : rows_) {
    any_scheduler |= !r.scheduler.empty() && !scheduler_is_axis;
    any_error |= !r.ok();
    makespan |= r.cell.makespan.count > 0;
    efficiency |= r.cell.efficiency.count > 0;
    response |= r.cell.response.count > 0;
    wall |= r.cell.sched_wall.count > 0;
    invocations |= r.cell.invocations.count > 0;
    requeued |= r.cell.requeued.count > 0 && r.cell.requeued.max > 0.0;
  }

  std::vector<std::string> headers = header_.axes;
  if (any_scheduler) headers.push_back("scheduler");
  if (makespan) {
    headers.push_back("makespan");
    headers.push_back("ci95");
  }
  if (efficiency) headers.push_back("efficiency");
  if (response) headers.push_back("response");
  if (wall) headers.push_back("sched_wall_s");
  if (invocations) headers.push_back("invocations");
  if (requeued) headers.push_back("requeued");
  for (const auto& extra : header_.extra_columns) headers.push_back(extra);
  if (any_error) headers.push_back("error");

  util::Table table(headers);
  for (const auto& r : rows_) {
    std::vector<std::string> cells;
    for (const auto& axis : header_.axes) {
      std::string label;
      for (const auto& [name, value] : r.coords) {
        if (name == axis) label = value;
      }
      cells.push_back(label);
    }
    if (any_scheduler) cells.push_back(r.scheduler);
    const bool has_stats = r.ok();
    auto stat = [&](const util::Summary& s, double v) {
      cells.push_back(has_stats && s.count > 0 ? util::fmt(v) : "");
    };
    if (makespan) {
      stat(r.cell.makespan, r.cell.makespan.mean);
      stat(r.cell.makespan, r.cell.makespan.ci95);
    }
    if (efficiency) stat(r.cell.efficiency, r.cell.efficiency.mean);
    if (response) stat(r.cell.response, r.cell.response.mean);
    if (wall) stat(r.cell.sched_wall, r.cell.sched_wall.mean);
    if (invocations) stat(r.cell.invocations, r.cell.invocations.mean);
    if (requeued) stat(r.cell.requeued, r.cell.requeued.mean);
    for (const auto& extra : header_.extra_columns) {
      bool found = false;
      for (const auto& [name, value] : r.extras) {
        if (name == extra) {
          cells.push_back(util::fmt(value));
          found = true;
          break;
        }
      }
      if (!found) cells.push_back("");
    }
    if (any_error) cells.push_back(r.error);
    table.add_row(std::move(cells));
  }
  table.print(os_);
}

// --- CsvSink ----------------------------------------------------------------

CsvSink::CsvSink(std::filesystem::path path, SinkMode mode)
    : path_(std::move(path)), mode_(mode) {}

std::vector<std::string> csv_columns(SweepHeader header) {
  // The fixed "scheduler" column already carries a scheduler axis.
  std::erase(header.axes, "scheduler");
  std::vector<std::string> cols{"index"};
  for (const auto& axis : header.axes) cols.push_back(axis);
  cols.insert(cols.end(),
              {"scheduler", "replications", "makespan_mean", "makespan_ci95",
               "efficiency_mean", "response_mean", "invocations_mean",
               "requeued_mean"});
  for (const auto& extra : header.extra_columns) cols.push_back(extra);
  cols.push_back("error");
  return cols;
}

void CsvSink::begin(const SweepHeader& header) {
  header_ = header;
  std::erase(header_.axes, "scheduler");
  const std::vector<std::string> cols = csv_columns(header);

  // Resume: keep the longest valid prefix of the existing file (header +
  // complete data rows), record its cell indices, drop everything after
  // the first partial or malformed line (a kill mid-write), and append.
  bool append = false;
  if (mode_ == SinkMode::kResume && std::filesystem::exists(path_)) {
    const std::string text = slurp(path_);
    const std::string expected = util::format_csv_row(cols);
    std::size_t pos = 0, keep = 0;
    bool header_seen = false;
    while (pos < text.size()) {
      const std::size_t nl = text.find('\n', pos);
      if (nl == std::string::npos) break;  // partial trailing line
      const std::string_view line(text.data() + pos, nl - pos);
      if (!header_seen) {
        if (line != expected) {
          throw std::runtime_error(
              "CsvSink: cannot resume " + path_.string() +
              ": existing header does not match this sweep's schema "
              "(delete the file or run without resume)");
        }
        header_seen = true;
      } else {
        const auto cells = util::parse_csv_line(line);
        const auto idx = cells.size() == cols.size()
                             ? util::parse_count(cells[0])
                             : std::nullopt;
        if (!idx) break;
        // A row with a non-empty error column is a *failed* cell: stop
        // the valid prefix here so the resume retries it (and everything
        // after it) instead of sealing the failure into the final file.
        if (!cells.back().empty()) break;
        present_.insert(*idx);
      }
      pos = nl + 1;
      keep = pos;
    }
    if (keep > 0) {
      if (keep < text.size()) std::filesystem::resize_file(path_, keep);
      append = true;
    }
  }

  writer_ = std::make_unique<util::CsvWriter>(path_, append);
  if (!append) {
    writer_->row(cols);
    writer_->flush();
  }
}

void CsvSink::row(const SweepRow& row) {
  if (!writer_) {
    throw std::logic_error("CsvSink: row() before begin()");
  }
  if (present_.count(row.index) > 0) return;  // already on disk (resume)
  std::vector<std::string> cells{std::to_string(row.index)};
  for (const auto& axis : header_.axes) {
    std::string label;
    for (const auto& [name, value] : row.coords) {
      if (name == axis) label = value;
    }
    cells.push_back(label);
  }
  cells.push_back(row.scheduler);
  const auto stat = [&](const util::Summary& s, double v) {
    cells.push_back(row.ok() && s.count > 0 ? util::format_double(v) : "");
  };
  cells.push_back(row.ok() ? std::to_string(row.cell.replications) : "");
  stat(row.cell.makespan, row.cell.makespan.mean);
  stat(row.cell.makespan, row.cell.makespan.ci95);
  stat(row.cell.efficiency, row.cell.efficiency.mean);
  stat(row.cell.response, row.cell.response.mean);
  stat(row.cell.invocations, row.cell.invocations.mean);
  stat(row.cell.requeued, row.cell.requeued.mean);
  for (const auto& extra : header_.extra_columns) {
    bool found = false;
    for (const auto& [name, value] : row.extras) {
      if (name == extra) {
        cells.push_back(util::format_double(value));
        found = true;
        break;
      }
    }
    if (!found) cells.push_back("");
  }
  // Exception text can contain newlines; flatten it so every physical
  // line of the file is one row (the invariant the resume scanner and
  // shard merger read by).
  std::string error = row.error;
  for (char& c : error) {
    if (c == '\n' || c == '\r') c = ' ';
  }
  cells.push_back(error);
  writer_->row(cells);
  writer_->flush();
}

// --- JsonlSink --------------------------------------------------------------

JsonlSink::JsonlSink(std::filesystem::path path, SinkMode mode)
    : path_(std::move(path)), mode_(mode) {}

void JsonlSink::begin(const SweepHeader& header) {
  header_ = header;
  if (path_.has_parent_path()) {
    std::filesystem::create_directories(path_.parent_path());
  }

  bool append = false;
  if (mode_ == SinkMode::kResume && std::filesystem::exists(path_)) {
    const std::string text = slurp(path_);
    // Every line this sink ever writes opens with the sweep name and
    // cell index, in this exact spelling (JsonWriter is deterministic).
    const std::string prefix =
        "{\"sweep\":\"" + util::json_escape(header_.name) + "\",\"index\":";
    std::size_t pos = 0, keep = 0;
    while (pos < text.size()) {
      const std::size_t nl = text.find('\n', pos);
      if (nl == std::string::npos) break;  // partial trailing line
      const std::string_view line(text.data() + pos, nl - pos);
      if (!line.starts_with(prefix)) {
        if (line.starts_with("{\"sweep\":\"")) {
          throw std::runtime_error(
              "JsonlSink: cannot resume " + path_.string() +
              ": file belongs to a different sweep (delete it or run "
              "without resume)");
        }
        break;  // malformed line: keep only what precedes it
      }
      if (line.back() != '}') break;
      // Failed cells carry an "error" key (JsonWriter emits it for no
      // other reason); stop the prefix there so resume retries them.
      if (line.find("\"error\":\"") != std::string_view::npos) break;
      std::size_t digits = prefix.size();
      while (digits < line.size() && std::isdigit(line[digits]) != 0) {
        ++digits;
      }
      const auto idx =
          util::parse_count(line.substr(prefix.size(), digits - prefix.size()));
      if (!idx) break;
      present_.insert(*idx);
      pos = nl + 1;
      keep = pos;
    }
    if (keep > 0) {
      if (keep < text.size()) std::filesystem::resize_file(path_, keep);
      append = true;
    }
  }

  out_ = std::make_unique<std::ofstream>(
      path_, append ? std::ios::app : std::ios::trunc);
  if (!*out_) {
    throw std::runtime_error("JsonlSink: cannot open " + path_.string());
  }
}

void JsonlSink::row(const SweepRow& row) {
  if (!out_) {
    throw std::logic_error("JsonlSink: row() before begin()");
  }
  if (present_.count(row.index) > 0) return;  // already on disk (resume)
  util::JsonWriter w;
  w.begin_object();
  w.key("sweep").string(header_.name);
  w.key("index").number(row.index);
  w.key("coords").begin_object();
  for (const auto& [axis, label] : row.coords) {
    w.key(axis).string(label);
  }
  w.end_object();
  if (!row.scheduler.empty()) w.key("scheduler").string(row.scheduler);
  if (!row.ok()) {
    w.key("error").string(row.error);
  } else {
    w.key("cell");
    write_cell_json(w, row.cell);
    if (!row.extras.empty()) {
      w.key("extras").begin_object();
      for (const auto& [name, value] : row.extras) {
        w.key(name).number(value);
      }
      w.end_object();
    }
  }
  w.end_object();
  *out_ << w.str() << '\n';
  out_->flush();
}

}  // namespace gasched::metrics
