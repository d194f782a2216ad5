#include "exp/runner.hpp"

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

CertifiedBounds certified_bounds(const Scenario& scenario,
                                 const metrics::RelaxationBoundOptions& options,
                                 bool parallel) {
  const std::size_t reps = scenario.replications;
  std::vector<CertifiedBounds> per_rep(reps);
  auto body = [&](std::size_t rep) {
    const metrics::BoundInstance inst = bound_instance(scenario, rep);
    per_rep[rep].lb_comb = metrics::makespan_lower_bound(inst);
    per_rep[rep].lb_qp = metrics::relaxation_lower_bound(inst, options);
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

}  // namespace gasched::exp
