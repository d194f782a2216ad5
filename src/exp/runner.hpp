#pragma once
// Replication runner: executes a (scenario, scheduler) cell R times with
// deterministic per-replication substreams, optionally in parallel across
// a thread pool. Every scheduler sees the *same* workload and cluster in
// replication r (paper §4.2: "All schedulers were presented with the same
// set of tasks for scheduling").
//
// Schedulers are addressed by SchedulerRegistry name (case-insensitive),
// so any registered entry — built-in or user-added — can run a cell.

#include <cstddef>
#include <functional>
#include <future>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "exp/scenario.hpp"
#include "ga/engine.hpp"
#include "metrics/aggregate.hpp"
#include "metrics/bounds.hpp"
#include "sim/engine.hpp"
#include "util/rng.hpp"

namespace gasched::exp {

/// The stream discipline: replication `rep` of a run seeded `seed` draws
/// its workload from stream 3·rep, its cluster from 3·rep + 1, its
/// simulation from 3·rep + 2 and its failures from 3·rep + 1'000'000.
/// Workload and cluster depend only on (seed, rep), so every scheduler
/// sees identical tasks and machines in replication rep. The workload
/// (the global stream, for a federation) is drawn here from `spec`.
struct ReplicationStreams {
  workload::Workload workload;
  util::Rng cluster;
  util::Rng sim;
  util::Rng failures;
};
ReplicationStreams replication_streams(const WorkloadSpec& spec,
                                       std::uint64_t seed, std::size_t rep);

/// Everything replication `rep` of `scenario` runs on, realised from
/// replication_streams: the tasks, the machines, the simulation stream
/// and, when the scenario has failures, the outage trace.
struct ReplicationInputs {
  workload::Workload workload;
  sim::Cluster cluster;
  util::Rng sim_rng;
  std::optional<sim::FailureTrace> failures;
};
ReplicationInputs make_inputs(const Scenario& scenario, std::size_t rep);

/// One steady-state GA batch (the paper's Fig. 3 setting, shared by
/// figure 3 and the GA ablation benches): replication `rep` of `seed`
/// draws the paper cluster (mean comm cost 20) on stream 2·rep and
/// `tasks` Normal(1000, 9e5) sizes on stream 2·rep + 1. The view is that
/// cluster as the GA sees it in steady state: Linpack rates, no pending
/// load, comm estimates primed at the true link means.
struct BatchInstance {
  sim::SystemView view;
  std::vector<double> sizes;
};
BatchInstance steady_state_batch(std::uint64_t seed, std::size_t rep,
                                 std::size_t tasks, std::size_t procs);

/// One GA run of a caller-built engine on `batch`: comm-aware pricing,
/// re-balance probes capped at `probes` (paper: 5), and a start
/// population of engine.config().population list schedules (fraction
/// `init_random_fraction` of tasks placed at random, the rest
/// earliest-finish; §3.3) drawn from `init_rng` before `ga_rng` drives
/// the run. One stream may be passed as both.
ga::GaResult steady_state_ga(const BatchInstance& batch,
                             const ga::GaEngine& engine, std::size_t probes,
                             double init_random_fraction, util::Rng& init_rng,
                             util::Rng& ga_rng);

/// Runs `scenario` under the named scheduler for scenario.replications
/// runs and returns the per-run results in replication order. Thread-safe
/// and deterministic: replication r derives its RNG streams from
/// (scenario.seed, r) regardless of execution order. Throws
/// std::runtime_error (listing all registered names) for unknown
/// schedulers.
std::vector<sim::SimulationResult> run_replications(
    const Scenario& scenario, const std::string& scheduler,
    const SchedulerParams& params = {}, bool parallel = true);

/// Builds one replication's policy; may be called from several threads.
using PolicyFactory = std::function<std::unique_ptr<sim::SchedulingPolicy>()>;

/// run_replications for a policy outside the registry: replication r
/// runs a fresh make_policy() on make_inputs(scenario, r), the engine
/// configured from `scenario` exactly as for a named scheduler.
std::vector<sim::SimulationResult> run_replications(
    const Scenario& scenario, const PolicyFactory& make_policy,
    bool parallel = true);

/// Convenience: run and aggregate into a CellSummary labelled with the
/// scheduler's canonical registry name.
metrics::CellSummary run_cell(const Scenario& scenario,
                              const std::string& scheduler,
                              const SchedulerParams& params = {},
                              bool parallel = true);

/// Runs one replication index `rep` of the cell (exposed for tests).
/// With `record_task_trace` the engine keeps the per-task placement
/// trace (for Gantt rendering / timelines) — identical run otherwise.
sim::SimulationResult run_one(const Scenario& scenario,
                              const std::string& scheduler,
                              const SchedulerParams& params, std::size_t rep,
                              bool record_task_trace = false);

/// The scheduler-visible bound instance of replication `rep`: the tasks
/// and machines of make_inputs (so every scheduler's run in that
/// replication is bounded by it), Linpack base rates, true per-link comm
/// means, no pending load. Feed to metrics::makespan_lower_bound /
/// relaxation_lower_bound / optimal_makespan_exact.
metrics::BoundInstance bound_instance(const Scenario& scenario,
                                      std::size_t rep);

/// Certified makespan lower bounds of a scenario, averaged over its
/// replications (each replication's workload/cluster has its own pair):
/// `lb_comb` is metrics::makespan_lower_bound, `lb_qp` is
/// metrics::relaxation_lower_bound under `options` (== lb_comb when
/// options.enabled is false). Deterministic at any thread count.
struct CertifiedBounds {
  double lb_comb = 0.0;
  double lb_qp = 0.0;
};
CertifiedBounds certified_bounds(const Scenario& scenario,
                                 const metrics::RelaxationBoundOptions& options,
                                 bool parallel = true);

/// certified_bounds that solves each replication's instance once: cells
/// that share a replication's workload and cluster (a grid over
/// schedulers) reuse its bounds instead of solving the relaxation again.
/// Entries are keyed by the bound_instance vectors and the options,
/// compared bit for bit, never by labels. Thread-safe: concurrent
/// callers of one instance wait for its single solve. A copy starts
/// empty, so a memo a Sweep runner captures by value lives for one
/// Sweep::run() (run() calls a fresh copy of its runner) and copied
/// Sweeps never share solves.
class BoundMemo {
 public:
  BoundMemo() = default;
  BoundMemo(const BoundMemo&) noexcept {}
  BoundMemo& operator=(const BoundMemo&) = delete;

  /// certified_bounds(scenario, options, parallel), bit for bit.
  CertifiedBounds bounds(const Scenario& scenario,
                         const metrics::RelaxationBoundOptions& options,
                         bool parallel = true) const;
  /// Distinct instances seen so far; each is solved exactly once.
  std::size_t solves() const;

 private:
  struct Entry {
    metrics::BoundInstance instance;
    metrics::RelaxationBoundOptions options;
    std::shared_future<CertifiedBounds> bounds;
  };
  /// The bounds of one replication's instance, solved at most once.
  CertifiedBounds replication(
      const metrics::BoundInstance& instance,
      const metrics::RelaxationBoundOptions& options) const;

  mutable std::mutex mu_;
  mutable std::vector<Entry> entries_;
};

}  // namespace gasched::exp
