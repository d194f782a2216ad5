#include "metrics/aggregate.hpp"

#include <algorithm>
#include <cmath>

namespace gasched::metrics {

CellSummary aggregate(const std::string& scheduler,
                      std::span<const sim::SimulationResult> runs) {
  CellSummary cell;
  cell.scheduler = scheduler;
  cell.replications = runs.size();
  std::vector<double> mk, eff, wall, resp, inv, req, comp;
  mk.reserve(runs.size());
  eff.reserve(runs.size());
  wall.reserve(runs.size());
  resp.reserve(runs.size());
  inv.reserve(runs.size());
  req.reserve(runs.size());
  comp.reserve(runs.size());
  for (const auto& r : runs) {
    mk.push_back(r.makespan);
    eff.push_back(r.efficiency());
    wall.push_back(r.scheduler_wall_seconds);
    resp.push_back(r.mean_response_time);
    inv.push_back(static_cast<double>(r.scheduler_invocations));
    req.push_back(static_cast<double>(r.tasks_requeued));
    comp.push_back(static_cast<double>(r.tasks_completed));
  }
  cell.makespan = util::summarize(mk);
  cell.efficiency = util::summarize(eff);
  cell.sched_wall = util::summarize(wall);
  cell.response = util::summarize(resp);
  cell.invocations = util::summarize(inv);
  cell.requeued = util::summarize(req);
  cell.completed = util::summarize(comp);
  return cell;
}

double busy_time_cv(const sim::SimulationResult& r) {
  if (r.per_proc.empty()) return 0.0;
  util::RunningStats rs;
  for (const auto& p : r.per_proc) rs.add(p.busy_time);
  return rs.mean() > 0.0 ? rs.stddev() / rs.mean() : 0.0;
}

double jain_fairness(const sim::SimulationResult& r) {
  if (r.per_proc.empty()) return 1.0;
  double sum = 0.0, sum_sq = 0.0;
  for (const auto& p : r.per_proc) {
    sum += p.busy_time;
    sum_sq += p.busy_time * p.busy_time;
  }
  if (sum_sq <= 0.0) return 1.0;
  const auto n = static_cast<double>(r.per_proc.size());
  return (sum * sum) / (n * sum_sq);
}

}  // namespace gasched::metrics
