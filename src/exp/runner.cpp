#include "exp/runner.hpp"

#include <cstring>
#include <exception>

#include "exp/registry.hpp"
#include "util/thread_pool.hpp"

namespace gasched::exp {

sim::SimulationResult run_one(const Scenario& scenario,
                              const std::string& scheduler,
                              const SchedulerParams& params, std::size_t rep,
                              bool record_task_trace) {
  // Stream discipline: workload and cluster depend only on (seed, rep), so
  // every scheduler sees identical tasks and machines in replication rep.
  const util::Rng base(scenario.seed);
  util::Rng workload_rng = base.split(3 * rep);
  util::Rng cluster_rng = base.split(3 * rep + 1);
  util::Rng sim_rng = base.split(3 * rep + 2);

  const auto dist = make_distribution(scenario.workload);
  const workload::ArrivalConfig arrivals = make_arrival(scenario.workload);
  const workload::Workload wl = workload::generate(
      *dist, scenario.workload.count, workload_rng, arrivals);
  const sim::Cluster cluster = sim::build_cluster(scenario.cluster, cluster_rng);
  const auto policy = SchedulerRegistry::instance().create(scheduler, params);

  sim::EngineConfig ecfg;
  ecfg.record_task_trace = record_task_trace;
  ecfg.sched_time_scale = scenario.sched_time_scale;
  ecfg.comm_nu = scenario.comm_nu;
  ecfg.rate_nu = scenario.rate_nu;
  sim::FailureTrace trace;
  if (scenario.failures) {
    util::Rng failure_rng = base.split(3 * rep + 1'000'000);
    trace = sim::FailureTrace(*scenario.failures,
                              scenario.cluster.num_processors, failure_rng);
    ecfg.failures = &trace;
  }
  return sim::simulate(cluster, wl, *policy, sim_rng, ecfg);
}

std::vector<sim::SimulationResult> run_replications(
    const Scenario& scenario, const std::string& scheduler,
    const SchedulerParams& params, bool parallel) {
  // Resolve once up front: an unknown name should throw here, on the
  // caller's thread, not inside the pool workers.
  const std::string name =
      SchedulerRegistry::instance().canonical_name(scheduler);
  std::vector<sim::SimulationResult> results(scenario.replications);
  auto body = [&](std::size_t rep) {
    results[rep] = run_one(scenario, name, params, rep);
  };
  if (parallel && scenario.replications > 1) {
    util::global_pool().parallel_for(0, scenario.replications, body);
  } else {
    for (std::size_t rep = 0; rep < scenario.replications; ++rep) body(rep);
  }
  return results;
}

metrics::CellSummary run_cell(const Scenario& scenario,
                              const std::string& scheduler,
                              const SchedulerParams& params, bool parallel) {
  const std::string name =
      SchedulerRegistry::instance().canonical_name(scheduler);
  const auto runs = run_replications(scenario, name, params, parallel);
  return metrics::aggregate(name, runs);
}

metrics::BoundInstance bound_instance(const Scenario& scenario,
                                      std::size_t rep) {
  // Mirror run_one's stream discipline exactly: workload and cluster
  // depend only on (seed, rep), so these are the tasks and machines every
  // scheduler saw in replication rep.
  const util::Rng base(scenario.seed);
  util::Rng workload_rng = base.split(3 * rep);
  util::Rng cluster_rng = base.split(3 * rep + 1);
  const auto dist = make_distribution(scenario.workload);
  const workload::ArrivalConfig arrivals = make_arrival(scenario.workload);
  const workload::Workload wl = workload::generate(
      *dist, scenario.workload.count, workload_rng, arrivals);
  const sim::Cluster cluster =
      sim::build_cluster(scenario.cluster, cluster_rng);

  metrics::BoundInstance inst;
  inst.task_sizes.reserve(wl.tasks.size());
  for (const auto& task : wl.tasks) inst.task_sizes.push_back(task.size_mflops);
  inst.rates.reserve(cluster.size());
  inst.comm_costs.reserve(cluster.size());
  for (std::size_t j = 0; j < cluster.size(); ++j) {
    inst.rates.push_back(cluster.processors[j].base_rate);
    inst.comm_costs.push_back(
        cluster.comm->true_mean(static_cast<sim::ProcId>(j)));
  }
  return inst;
}

namespace {

CertifiedBounds solve_instance(const metrics::BoundInstance& inst,
                               const metrics::RelaxationBoundOptions& options) {
  return {metrics::makespan_lower_bound(inst),
          metrics::relaxation_lower_bound(inst, options)};
}

/// The mean of `bounds_of(bound_instance(scenario, rep))` over the
/// replications, summed in replication order at any thread count.
template <typename BoundsOf>
CertifiedBounds mean_bounds(const Scenario& scenario, bool parallel,
                            const BoundsOf& bounds_of) {
  const std::size_t reps = scenario.replications;
  std::vector<CertifiedBounds> per_rep(reps);
  auto body = [&](std::size_t rep) {
    per_rep[rep] = bounds_of(bound_instance(scenario, rep));
  };
  if (parallel && reps > 1) {
    util::global_pool().parallel_for(0, reps, body);
  } else {
    for (std::size_t rep = 0; rep < reps; ++rep) body(rep);
  }
  CertifiedBounds mean;
  for (const auto& b : per_rep) {
    mean.lb_comb += b.lb_comb;
    mean.lb_qp += b.lb_qp;
  }
  if (reps > 0) {
    mean.lb_comb /= static_cast<double>(reps);
    mean.lb_qp /= static_cast<double>(reps);
  }
  return mean;
}

bool same_bits(const std::vector<double>& a, const std::vector<double>& b) {
  return a.size() == b.size() &&
         (a.empty() ||
          std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0);
}

bool same_bits(const metrics::RelaxationBoundOptions& a,
               const metrics::RelaxationBoundOptions& b) {
  return a.enabled == b.enabled && a.max_iterations == b.max_iterations &&
         std::memcmp(&a.tolerance, &b.tolerance, sizeof(double)) == 0;
}

}  // namespace

CertifiedBounds certified_bounds(const Scenario& scenario,
                                 const metrics::RelaxationBoundOptions& options,
                                 bool parallel) {
  return mean_bounds(scenario, parallel,
                     [&](const metrics::BoundInstance& inst) {
                       return solve_instance(inst, options);
                     });
}

CertifiedBounds BoundMemo::bounds(
    const Scenario& scenario, const metrics::RelaxationBoundOptions& options,
    bool parallel) const {
  return mean_bounds(scenario, parallel,
                     [&](const metrics::BoundInstance& inst) {
                       return replication(inst, options);
                     });
}

std::size_t BoundMemo::solves() const {
  std::lock_guard lk(mu_);
  return entries_.size();
}

CertifiedBounds BoundMemo::replication(
    const metrics::BoundInstance& instance,
    const metrics::RelaxationBoundOptions& options) const {
  std::promise<CertifiedBounds> solve;
  std::shared_future<CertifiedBounds> result;
  bool solver = false;
  {
    std::lock_guard lk(mu_);
    for (const Entry& e : entries_) {
      if (same_bits(e.instance.task_sizes, instance.task_sizes) &&
          same_bits(e.instance.rates, instance.rates) &&
          same_bits(e.instance.pending_mflops, instance.pending_mflops) &&
          same_bits(e.instance.comm_costs, instance.comm_costs) &&
          same_bits(e.options, options)) {
        result = e.bounds;
        break;
      }
    }
    if (!result.valid()) {
      result = solve.get_future().share();
      entries_.push_back({instance, options, result});
      solver = true;
    }
  }
  if (!solver) return result.get();
  // Solved outside the lock, by this caller alone; the solve is serial,
  // so callers waiting on `result` always see it finish.
  try {
    solve.set_value(solve_instance(instance, options));
  } catch (...) {
    solve.set_exception(std::current_exception());
  }
  return result.get();
}

}  // namespace gasched::exp
