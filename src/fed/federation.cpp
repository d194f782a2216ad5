#include "fed/federation.hpp"

#include <algorithm>
#include <limits>
#include <stdexcept>

#include "exp/config_scenario.hpp"
#include "exp/registry.hpp"
#include "exp/runner.hpp"
#include "util/parse.hpp"
#include "util/thread_pool.hpp"

namespace gasched::fed {

namespace {

constexpr std::size_t kNone = std::numeric_limits<std::size_t>::max();

}  // namespace

ClusterNode::ClusterNode(const ClusterSpec& spec,
                         const exp::SchedulerParams& params,
                         const sim::EngineConfig& engine_cfg,
                         util::Rng cluster_rng, util::Rng failure_rng,
                         util::Rng sim_rng)
    : name_(spec.name), engine_cfg_(engine_cfg) {
  cluster_ = sim::build_cluster(spec.cluster, cluster_rng);
  if (spec.failures) {
    trace_ = sim::FailureTrace(*spec.failures, spec.cluster.num_processors,
                               failure_rng);
    engine_cfg_.failures = &trace_;
  }
  policy_ = exp::make_scheduler(spec.scheduler, params);
  engine_ = std::make_unique<sim::Engine>(cluster_, workload::Workload{},
                                          *policy_, std::move(sim_rng),
                                          engine_cfg_);
}

sim::SimulationResult FederationResult::as_simulation_result() const {
  sim::SimulationResult r;
  r.makespan = makespan;
  r.tasks_completed = tasks_completed;
  r.mean_response_time = mean_response_time;
  for (const ClusterResult& c : clusters) {
    r.per_proc.insert(r.per_proc.end(), c.sim.per_proc.begin(),
                      c.sim.per_proc.end());
    r.scheduler_invocations += c.sim.scheduler_invocations;
    r.scheduler_wall_seconds += c.sim.scheduler_wall_seconds;
    r.tasks_requeued += c.sim.tasks_requeued;
  }
  return r;
}

Federation::Federation(const FederationConfig& cfg, std::size_t rep)
    : cfg_(cfg), topology_(cfg.topology) {
  if (cfg_.clusters.empty()) {
    throw std::invalid_argument("Federation: no clusters configured");
  }
  if (topology_.size() != cfg_.clusters.size()) {
    throw std::invalid_argument(
        "Federation: topology size does not match cluster count");
  }

  // Capacity-weighted routing uses a cumulative weight table; a task's
  // hash picks the interval it falls into.
  double total_weight = 0.0;
  for (const ClusterSpec& s : cfg_.clusters) {
    if (!(s.weight > 0.0)) {
      throw std::invalid_argument("Federation: cluster weights must be > 0");
    }
    total_weight += s.weight;
  }
  double acc = 0.0;
  for (const ClusterSpec& s : cfg_.clusters) {
    acc += s.weight / total_weight;
    weight_cdf_.push_back(acc);
  }
  weight_cdf_.back() = 1.0;

  sim::EngineConfig ecfg;
  ecfg.comm_nu = cfg_.comm_nu;
  ecfg.rate_nu = cfg_.rate_nu;
  ecfg.max_event_factor = cfg_.max_event_factor;

  // exp::replication_streams decides the global workload and the
  // replication's streams; each cluster sub-splits them by its index, so
  // cluster k's machines and simulation stream are independent of every
  // other cluster and of the execution order of replications.
  const exp::ReplicationStreams streams =
      exp::replication_streams(cfg_.workload, cfg_.seed, rep);
  for (std::size_t k = 0; k < cfg_.clusters.size(); ++k) {
    nodes_.push_back(std::make_unique<ClusterNode>(
        cfg_.clusters[k], cfg_.scheduler_params, ecfg,
        streams.cluster.split(k), streams.failures.split(k),
        streams.sim.split(k)));
  }

  total_tasks_ = streams.workload.tasks.size();
  transfers_.reserve(64);
  for (const workload::Task& task : streams.workload.tasks) {
    const std::size_t k = route(task);
    nodes_[k]->engine().inject_task(task, task.arrival_time);
    ++nodes_[k]->routed;
  }
}

std::size_t Federation::route(const workload::Task& task) const {
  const std::size_t n = nodes_.size();
  switch (cfg_.router) {
    case RouterKind::kRoundRobin:
      return static_cast<std::size_t>(task.id) % n;
    case RouterKind::kHash: {
      std::uint64_t state = static_cast<std::uint64_t>(task.id);
      return static_cast<std::size_t>(util::splitmix64_next(state) % n);
    }
    case RouterKind::kWeighted: {
      std::uint64_t state = static_cast<std::uint64_t>(task.id) ^
                            0x5851F42D4C957F2DULL;
      const double u =
          static_cast<double>(util::splitmix64_next(state) >> 11) *
          0x1.0p-53;
      const auto it =
          std::lower_bound(weight_cdf_.begin(), weight_cdf_.end(), u);
      return static_cast<std::size_t>(it - weight_cdf_.begin());
    }
  }
  return 0;
}

void Federation::send(std::size_t from, std::size_t to, workload::Task task) {
  const double wire = topology_.transfer_time(from, to, task.size_mflops);
  link_busy_seconds_ += wire;
  migrated_mflops_ += task.size_mflops;
  ++migrations_;
  ++nodes_[from]->migrated_out;
  transfers_.push(now_ + wire, Transfer{to, std::move(task)});
}

void Federation::maybe_migrate(std::size_t from) {
  sim::Engine& src = nodes_[from]->engine();
  switch (cfg_.migration) {
    case MigrationKind::kNone:
      return;
    case MigrationKind::kThreshold: {
      // Push backlog above the high-water mark to the least-loaded
      // out-neighbour, provided the move actually flattens the gradient.
      if (src.unscheduled_count() <= cfg_.migration_threshold) return;
      std::size_t best = kNone;
      std::size_t best_backlog = 0;
      for (const std::size_t k : topology_.neighbors(from)) {
        const std::size_t b = nodes_[k]->engine().backlog();
        if (best == kNone || b < best_backlog) {
          best = k;
          best_backlog = b;
        }
      }
      if (best == kNone) return;
      if (best_backlog + cfg_.migration_chunk >= src.backlog()) return;
      for (workload::Task& t : src.take_unscheduled(cfg_.migration_chunk)) {
        send(from, best, std::move(t));
      }
      return;
    }
    case MigrationKind::kSteal: {
      // The stepped cluster's queue just changed: any starved
      // out-neighbour pulls a chunk from it.
      for (const std::size_t k : topology_.neighbors(from)) {
        if (src.unscheduled_count() == 0) return;
        const sim::Engine& thief = nodes_[k]->engine();
        if (thief.backlog() == 0 && thief.finished()) {
          for (workload::Task& t :
               src.take_unscheduled(cfg_.migration_chunk)) {
            send(from, k, std::move(t));
          }
        }
      }
      return;
    }
    case MigrationKind::kBroadcast: {
      // Offer one task to each strictly less-loaded neighbour in turn
      // until the chunk is spent.
      if (src.unscheduled_count() <= cfg_.migration_threshold) return;
      std::vector<std::size_t> eligible;
      for (const std::size_t k : topology_.neighbors(from)) {
        if (nodes_[k]->engine().backlog() < src.backlog()) eligible.push_back(k);
      }
      if (eligible.empty()) return;
      for (std::size_t i = 0;
           i < cfg_.migration_chunk && src.unscheduled_count() > 0; ++i) {
        auto taken = src.take_unscheduled(1);
        if (taken.empty()) return;
        send(from, eligible[i % eligible.size()], std::move(taken.front()));
      }
      return;
    }
  }
}

FederationResult Federation::run() {
  const auto completed_total = [&] {
    std::size_t c = 0;
    for (const auto& n : nodes_) c += n->engine().tasks_completed();
    return c;
  };

  while (completed_total() < total_tasks_) {
    // Earliest cluster event (ties: lowest index)...
    std::size_t best = kNone;
    double best_time = std::numeric_limits<double>::infinity();
    for (std::size_t k = 0; k < nodes_.size(); ++k) {
      sim::Engine& e = nodes_[k]->engine();
      if (e.has_events() && e.next_event_time() < best_time) {
        best = k;
        best_time = e.next_event_time();
      }
    }
    // ...versus the earliest in-flight transfer. Transfers land first at
    // equal timestamps so a migrated task is visible to the scheduling
    // decision its arrival provokes.
    if (!transfers_.empty() && transfers_.top_time() <= best_time) {
      const Transfer tr = transfers_.top();
      now_ = transfers_.top_time();
      transfers_.pop();
      ++nodes_[tr.to]->migrated_in;
      nodes_[tr.to]->engine().inject_task(tr.task, now_);
      continue;
    }
    if (best != kNone) {
      sim::Engine& e = nodes_[best]->engine();
      now_ = e.next_event_time();
      e.step();
      if (cfg_.migration != MigrationKind::kNone) maybe_migrate(best);
      continue;
    }
    // No events, no transfers, tasks remain: give stalled policies one
    // more invocation (mirrors the single-engine deadlock grace step).
    bool woke = false;
    for (const auto& n : nodes_) {
      if (n->engine().unscheduled_count() > 0 && n->engine().kick()) {
        woke = true;
      }
    }
    if (!woke) {
      throw std::runtime_error(
          "Federation: deadlock — tasks remain but no cluster has events "
          "and no transfer is in flight");
    }
  }

  FederationResult r;
  r.migrations = migrations_;
  r.migrated_mflops = migrated_mflops_;
  r.link_busy_seconds = link_busy_seconds_;
  double response_weighted = 0.0;
  for (const auto& n : nodes_) {
    ClusterResult c;
    c.name = n->name();
    c.sim = n->engine().result();
    c.tasks_routed = n->routed;
    c.migrated_in = n->migrated_in;
    c.migrated_out = n->migrated_out;
    r.makespan = std::max(r.makespan, c.sim.makespan);
    r.tasks_completed += c.sim.tasks_completed;
    response_weighted += c.sim.mean_response_time *
                         static_cast<double>(c.sim.tasks_completed);
    r.clusters.push_back(std::move(c));
  }
  r.mean_response_time =
      r.tasks_completed > 0
          ? response_weighted / static_cast<double>(r.tasks_completed)
          : 0.0;
  return r;
}

FederationResult run_federation(const FederationConfig& cfg, std::size_t rep) {
  Federation fed(cfg, rep);
  return fed.run();
}

std::vector<FederationResult> run_federation_replications(
    const FederationConfig& cfg, bool parallel) {
  std::vector<FederationResult> results(cfg.replications);
  util::for_each_index(results.size(), parallel, [&](std::size_t rep) {
    results[rep] = run_federation(cfg, rep);
  });
  return results;
}

FederationConfig federation_from_config(const util::Config& cfg) {
  FederationConfig f;
  f.name = cfg.get("federation.name", "federation");
  const auto names = util::split_list("federation.clusters",
                                      cfg.get("federation.clusters", ""));
  if (names.empty()) {
    throw std::runtime_error(
        "federation config: [federation] clusters = a, b, ... is required");
  }
  f.seed = cfg.get_size("federation.seed", 42);
  f.replications = exp::positive_size(cfg, "federation.replications", 3);
  f.comm_nu = cfg.get_double("federation.comm_nu", 0.5);
  f.rate_nu = cfg.get_double("federation.rate_nu", 0.5);
  f.max_event_factor = cfg.get_size("federation.max_event_factor", 64);
  f.migration_threshold = cfg.get_size("federation.migration_threshold", 32);
  f.migration_chunk = cfg.get_size("federation.migration_chunk", 8);

  const std::string router = cfg.get("federation.router", "round_robin");
  if (router == "round_robin") {
    f.router = RouterKind::kRoundRobin;
  } else if (router == "hash") {
    f.router = RouterKind::kHash;
  } else if (router == "weighted") {
    f.router = RouterKind::kWeighted;
  } else {
    throw std::runtime_error("federation config: unknown router '" + router +
                             "' (round_robin, hash, weighted)");
  }

  const std::string migration = cfg.get("federation.migration", "none");
  if (migration == "none") {
    f.migration = MigrationKind::kNone;
  } else if (migration == "threshold") {
    f.migration = MigrationKind::kThreshold;
  } else if (migration == "steal") {
    f.migration = MigrationKind::kSteal;
  } else if (migration == "broadcast") {
    f.migration = MigrationKind::kBroadcast;
  } else {
    throw std::runtime_error("federation config: unknown migration '" +
                             migration +
                             "' (none, threshold, steal, broadcast)");
  }

  for (const std::string& name : names) {
    const std::string p = "cluster." + name + ".";
    ClusterSpec spec;
    spec.name = name;
    spec.cluster.num_processors =
        exp::positive_size(cfg, p + "processors", 50);
    spec.cluster.rate_lo = cfg.get_double(p + "rate_lo", 10.0);
    spec.cluster.rate_hi = cfg.get_double(p + "rate_hi", 100.0);
    spec.cluster.comm.mean_cost = cfg.get_double(p + "mean_comm_cost", 20.0);
    spec.cluster.comm.spread_cv = cfg.get_double(p + "spread_cv", 0.5);
    spec.cluster.comm.jitter_cv = cfg.get_double(p + "jitter_cv", 0.2);
    spec.scheduler = exp::SchedulerRegistry::instance().canonical_name(
        cfg.get(p + "scheduler", "EF"));
    spec.weight = cfg.get_double(p + "weight", 1.0);
    if (cfg.get_bool(p + "failures", false)) {
      sim::FailureConfig fc;
      fc.mean_uptime = cfg.get_double(p + "mean_uptime", 5000.0);
      fc.mean_downtime = cfg.get_double(p + "mean_downtime", 200.0);
      fc.horizon = cfg.get_double(p + "failures_horizon", 100000.0);
      fc.failing_fraction = cfg.get_double(p + "failing_fraction", 1.0);
      spec.failures = fc;
    }
    f.clusters.push_back(std::move(spec));
  }

  const std::size_t n = f.clusters.size();
  LinkParams def;
  def.latency = cfg.get_double("federation.latency", 0.05);
  def.bandwidth = cfg.get_double("federation.bandwidth", 1e5);
  const std::string topology = cfg.get("federation.topology", "full_mesh");
  if (topology == "full_mesh") {
    f.topology = Topology::full_mesh(n, def);
  } else if (topology == "ring") {
    f.topology = Topology::ring(n, def);
  } else if (topology == "star") {
    const std::string hub = cfg.get("federation.hub", names.front());
    const auto it = std::find(names.begin(), names.end(), hub);
    if (it == names.end()) {
      throw std::runtime_error("federation config: hub '" + hub +
                               "' is not a configured cluster");
    }
    f.topology =
        Topology::star(n, static_cast<std::size_t>(it - names.begin()), def);
  } else if (topology == "custom") {
    f.topology = Topology(n);
  } else {
    throw std::runtime_error("federation config: unknown topology '" +
                             topology +
                             "' (full_mesh, star, ring, custom)");
  }
  // Per-link overrides (and, for `custom`, the links themselves):
  // [link.<from>.<to>] latency/bandwidth.
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      if (i == j) continue;
      const std::string key = "link." + names[i] + "." + names[j] + ".";
      if (!cfg.has(key + "latency") && !cfg.has(key + "bandwidth")) continue;
      const LinkParams* existing = f.topology.link(i, j);
      const LinkParams base = existing != nullptr ? *existing : def;
      LinkParams link;
      link.latency = cfg.get_double(key + "latency", base.latency);
      link.bandwidth = cfg.get_double(key + "bandwidth", base.bandwidth);
      f.topology.add_link(i, j, link);
    }
  }

  f.workload = exp::workload_from_config(cfg);
  f.scheduler_params = exp::scheduler_params_from_config(cfg);
  return f;
}

}  // namespace gasched::fed
