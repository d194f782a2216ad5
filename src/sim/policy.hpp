#pragma once
// The boundary between the discrete-event engine and scheduling logic.
//
// The engine owns ground truth (true rates, true link costs); schedulers
// only ever see a `SystemView` built from *observable* quantities: the
// Linpack-style base rates, smoothed observed execution rates, smoothed
// observed per-link communication costs, and the load already assigned to
// each processor. This enforces the paper's information model — the
// scheduler "estimates the communication costs between each client and
// server using historical information" (§5).

#include <deque>
#include <string>
#include <vector>

#include "sim/types.hpp"
#include "util/rng.hpp"
#include "workload/task.hpp"

namespace gasched::sim {

/// Observable state of one processor at scheduling time.
struct ProcessorView {
  ProcId id = kInvalidProc;
  /// Estimated current execution rate P_j in Mflop/s: Linpack base rate
  /// blended with smoothed observed throughput.
  double rate = 0.0;
  /// Previously assigned but unprocessed load L_j in MFLOPs (future queue
  /// + in-flight dispatch + remaining work of the executing task).
  double pending_mflops = 0.0;
  /// Smoothed estimate Γc_j of one dispatch's communication cost to this
  /// processor (seconds); 0 until the link has been observed.
  double comm_estimate = 0.0;
  /// Number of completed communications observed on this link.
  std::size_t comm_observations = 0;

  /// Estimated time for this processor to drain its pending load (δ_j of
  /// the paper's fitness function).
  double drain_time() const { return rate > 0.0 ? pending_mflops / rate : 0.0; }
};

/// Observable state handed to a scheduler at invocation time.
struct SystemView {
  SimTime now = 0.0;
  std::vector<ProcessorView> procs;

  /// Number of processors M.
  std::size_t size() const noexcept { return procs.size(); }

  /// Σ_j P_j over all processors.
  double total_rate() const noexcept {
    double s = 0.0;
    for (const auto& p : procs) s += p.rate;
    return s;
  }
};

/// Result of one scheduler invocation: for each processor, the ordered
/// list of tasks appended to that processor's future queue.
struct BatchAssignment {
  /// per_proc[j] lists task ids in dispatch order for processor j.
  std::vector<std::vector<workload::TaskId>> per_proc;

  /// Creates an empty assignment for `procs` processors.
  static BatchAssignment empty(std::size_t procs) {
    BatchAssignment a;
    a.per_proc.resize(procs);
    return a;
  }

  /// Total number of tasks assigned.
  std::size_t total() const noexcept {
    std::size_t n = 0;
    for (const auto& q : per_proc) n += q.size();
    return n;
  }
};

/// Strategy invoked by the engine whenever scheduling may make progress:
/// at task arrival, and whenever a processor goes idle with an empty
/// future queue while unscheduled tasks remain.
class SchedulingPolicy {
 public:
  virtual ~SchedulingPolicy() = default;

  /// Consumes zero or more tasks from the front of `queue` and returns
  /// their assignment. Must assign exactly the tasks it consumed; the
  /// engine throws std::runtime_error when the number of ids assigned
  /// differs from the number taken off the queue.
  /// `view` belongs to the caller and is valid only until invoke returns
  /// (the engine rewrites it in place between invocations); a policy
  /// that keeps any of it must copy it.
  virtual BatchAssignment invoke(const SystemView& view,
                                 std::deque<workload::Task>& queue,
                                 util::Rng& rng) = 0;

  /// Display name (e.g. "PN", "ZO", "EF").
  virtual std::string name() const = 0;
};

}  // namespace gasched::sim
