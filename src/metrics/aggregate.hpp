#pragma once
// Aggregation of simulation results across replications. The paper reports
// averages of 20–50 runs per point; these helpers compute the same
// summaries plus dispersion.

#include <span>
#include <string>
#include <vector>

#include "sim/engine.hpp"
#include "util/stats.hpp"

namespace gasched::metrics {

/// Summary of one (scheduler, scenario) cell across replications.
struct CellSummary {
  std::string scheduler;        ///< display name (PN, ZO, EF, ...)
  std::size_t replications = 0; ///< number of runs aggregated
  util::Summary makespan;       ///< makespan distribution
  util::Summary efficiency;     ///< efficiency distribution
  util::Summary sched_wall;     ///< scheduler wall-clock seconds
  util::Summary response;       ///< mean task response time
  util::Summary invocations;    ///< scheduler invocations per run
  util::Summary requeued;       ///< tasks requeued by failures per run
  util::Summary completed;      ///< tasks completed per run
};

/// Aggregates `runs` into a CellSummary labelled `scheduler`.
CellSummary aggregate(const std::string& scheduler,
                      std::span<const sim::SimulationResult> runs);

/// Per-processor load-imbalance measure of one run: coefficient of
/// variation of busy time across processors (0 = perfectly balanced).
double busy_time_cv(const sim::SimulationResult& r);

/// Jain's fairness index over per-processor busy time, in (0, 1];
/// 1 = perfectly balanced.
double jain_fairness(const sim::SimulationResult& r);

}  // namespace gasched::metrics
