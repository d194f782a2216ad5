#include "metrics/report_json.hpp"

#include "util/json.hpp"

namespace gasched::metrics {

namespace {

void write_summary(util::JsonWriter& w, const util::Summary& s) {
  w.begin_object();
  w.key("count").number(s.count);
  w.key("mean").number(s.mean);
  w.key("stddev").number(s.stddev);
  w.key("min").number(s.min);
  w.key("max").number(s.max);
  w.key("median").number(s.median);
  w.key("ci95").number(s.ci95);
  w.end_object();
}

}  // namespace

void write_cell_json(util::JsonWriter& w, const CellSummary& cell) {
  w.begin_object();
  w.key("scheduler").string(cell.scheduler);
  w.key("replications").number(cell.replications);
  w.key("makespan");
  write_summary(w, cell.makespan);
  w.key("efficiency");
  write_summary(w, cell.efficiency);
  w.key("sched_wall_seconds");
  write_summary(w, cell.sched_wall);
  w.key("mean_response_time");
  write_summary(w, cell.response);
  w.key("scheduler_invocations");
  write_summary(w, cell.invocations);
  w.key("tasks_requeued");
  write_summary(w, cell.requeued);
  w.end_object();
}

}  // namespace gasched::metrics
