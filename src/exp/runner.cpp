#include "exp/runner.hpp"

#include <cstring>
#include <exception>

#include "core/fitness.hpp"
#include "core/init.hpp"
#include "exp/registry.hpp"
#include "util/thread_pool.hpp"

namespace gasched::exp {

ReplicationStreams replication_streams(const WorkloadSpec& spec,
                                       std::uint64_t seed, std::size_t rep) {
  const util::Rng base(seed);
  util::Rng workload_rng = base.split(3 * rep);
  const auto dist = make_distribution(spec);
  return {workload::generate(*dist, spec.count, workload_rng,
                             make_arrival(spec)),
          base.split(3 * rep + 1), base.split(3 * rep + 2),
          base.split(3 * rep + 1'000'000)};
}

ReplicationInputs make_inputs(const Scenario& scenario, std::size_t rep) {
  ReplicationStreams streams =
      replication_streams(scenario.workload, scenario.seed, rep);
  ReplicationInputs in{std::move(streams.workload),
                       sim::build_cluster(scenario.cluster, streams.cluster),
                       streams.sim, std::nullopt};
  if (scenario.failures) {
    in.failures.emplace(*scenario.failures, scenario.cluster.num_processors,
                        streams.failures);
  }
  return in;
}

BatchInstance steady_state_batch(std::uint64_t seed, std::size_t rep,
                                 std::size_t tasks, std::size_t procs) {
  const util::Rng base(seed);
  util::Rng cluster_rng = base.split(2 * rep);
  util::Rng task_rng = base.split(2 * rep + 1);
  const sim::Cluster cluster =
      sim::build_cluster(paper_cluster(20.0, procs), cluster_rng);
  BatchInstance inst;
  inst.view.procs.resize(cluster.size());
  for (std::size_t j = 0; j < cluster.size(); ++j) {
    sim::ProcessorView& v = inst.view.procs[j];
    v.id = static_cast<sim::ProcId>(j);
    v.rate = cluster.processors[j].base_rate;
    v.comm_estimate = cluster.comm->true_mean(static_cast<sim::ProcId>(j));
    v.comm_observations = 1;
  }
  workload::NormalSizes dist(1000.0, 9e5);
  inst.sizes.resize(tasks);
  for (double& size : inst.sizes) size = dist.sample(task_rng);
  return inst;
}

ga::GaResult steady_state_ga(const BatchInstance& batch,
                             const ga::GaEngine& engine, std::size_t probes,
                             double init_random_fraction, util::Rng& init_rng,
                             util::Rng& ga_rng) {
  const core::ScheduleCodec codec(batch.sizes.size(), batch.view.size());
  const core::ScheduleEvaluator eval(batch.sizes, batch.view,
                                     /*use_comm=*/true);
  const core::ScheduleProblem problem(codec, eval, probes);
  auto init = core::initial_population(codec, eval, engine.config().population,
                                       init_random_fraction, init_rng);
  return engine.run(problem, std::move(init), ga_rng);
}

namespace {

/// Replication `rep` of `scenario` under `policy`.
sim::SimulationResult simulate_replication(const Scenario& scenario,
                                           sim::SchedulingPolicy& policy,
                                           std::size_t rep,
                                           bool record_task_trace) {
  const ReplicationInputs in = make_inputs(scenario, rep);
  sim::EngineConfig ecfg;
  ecfg.record_task_trace = record_task_trace;
  ecfg.sched_time_scale = scenario.sched_time_scale;
  ecfg.comm_nu = scenario.comm_nu;
  ecfg.rate_nu = scenario.rate_nu;
  if (in.failures) ecfg.failures = &*in.failures;
  return sim::simulate(in.cluster, in.workload, policy, in.sim_rng, ecfg);
}

}  // namespace

sim::SimulationResult run_one(const Scenario& scenario,
                              const std::string& scheduler,
                              const SchedulerParams& params, std::size_t rep,
                              bool record_task_trace) {
  const auto policy = SchedulerRegistry::instance().create(scheduler, params);
  return simulate_replication(scenario, *policy, rep, record_task_trace);
}

std::vector<sim::SimulationResult> run_replications(
    const Scenario& scenario, const PolicyFactory& make_policy,
    bool parallel) {
  std::vector<sim::SimulationResult> results(scenario.replications);
  util::for_each_index(results.size(), parallel, [&](std::size_t rep) {
    const auto policy = make_policy();
    results[rep] = simulate_replication(scenario, *policy, rep,
                                        /*record_task_trace=*/false);
  });
  return results;
}

std::vector<sim::SimulationResult> run_replications(
    const Scenario& scenario, const std::string& scheduler,
    const SchedulerParams& params, bool parallel) {
  // Resolve once up front: an unknown name should throw here, on the
  // caller's thread, not inside the pool workers.
  const std::string name =
      SchedulerRegistry::instance().canonical_name(scheduler);
  return run_replications(
      scenario,
      [&] { return SchedulerRegistry::instance().create(name, params); },
      parallel);
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
  const ReplicationInputs in = make_inputs(scenario, rep);
  metrics::BoundInstance inst;
  inst.task_sizes.reserve(in.workload.tasks.size());
  for (const auto& task : in.workload.tasks) {
    inst.task_sizes.push_back(task.size_mflops);
  }
  inst.rates.reserve(in.cluster.size());
  inst.comm_costs.reserve(in.cluster.size());
  for (std::size_t j = 0; j < in.cluster.size(); ++j) {
    inst.rates.push_back(in.cluster.processors[j].base_rate);
    inst.comm_costs.push_back(
        in.cluster.comm->true_mean(static_cast<sim::ProcId>(j)));
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
  util::for_each_index(reps, parallel, [&](std::size_t rep) {
    per_rep[rep] = bounds_of(bound_instance(scenario, rep));
  });
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
