#pragma once
// Federated multi-cluster simulation: N independent §3 scheduler/cluster
// systems (fed::ClusterNode, each a stepwise sim::Engine with its own
// registry-resolved policy and failure trace) composed over a
// fed::Topology, exchanging spillover work at link cost.
//
// Model (the "millions of users" north-star scenario, shaped after the
// multi-cloud tick engines of gacspp-style grid simulators):
//
//  * One global task stream is split across clusters by a configurable
//    router (round-robin, id-hash, or capacity-weighted) — each cluster
//    schedules its share with its own policy, exactly the paper's
//    protocol, oblivious to the federation around it.
//  * A migration policy moves *unscheduled* tasks between clusters over
//    topology links: `threshold` pushes backlog above a high-water mark
//    to the least-loaded neighbour, `steal` lets a drained cluster pull
//    from its most-loaded neighbour, `broadcast` offers one task to every
//    less-loaded neighbour in turn. Transfers take
//    latency + size/bandwidth simulated seconds on the wire, tracked in
//    a federation-level sim::CalendarQueue.
//  * The federation advances the cluster with the earliest pending event
//    (ties: lowest cluster index); in-flight transfers land before
//    cluster events at the same timestamp. Everything is serial and
//    seeded from (seed, replication, cluster index) substreams, so a run
//    is byte-reproducible at any host thread count — replications, not
//    clusters, are the parallelism axis.
//
// Conservation invariant: every routed task is, at all times, in exactly
// one cluster or on exactly one wire; a finished run has
// Σ per-cluster completed == workload count, whatever migrated where.
// fed_federation_test locks this down.
//
// Configuration surface ([federation]/[cluster.*]/[link.*] INI sections)
// is documented in docs/federation.md and parsed by
// federation_from_config().

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "exp/scenario.hpp"
#include "fed/topology.hpp"
#include "sim/engine.hpp"
#include "sim/event_queue.hpp"
#include "sim/failure.hpp"
#include "util/config.hpp"
#include "util/rng.hpp"

namespace gasched::fed {

/// How the global arrival stream is split across clusters.
enum class RouterKind {
  kRoundRobin,  ///< task i → cluster i mod N
  kHash,        ///< splitmix64(task id) mod N (decorrelated from id order)
  kWeighted,    ///< ClusterSpec::weight-proportional deterministic hash
};

/// Which spillover/migration policy moves unscheduled work between
/// clusters.
enum class MigrationKind {
  kNone,       ///< clusters are isolated (router only)
  kThreshold,  ///< queue-pressure push to the least-loaded neighbour
  kSteal,      ///< drained clusters pull from the most-loaded neighbour
  kBroadcast,  ///< offer one task to each less-loaded neighbour in turn
};

/// Declarative description of one member cluster.
struct ClusterSpec {
  std::string name = "cluster";
  sim::ClusterConfig cluster;     ///< processors, rates, comm model
  std::string scheduler = "EF";   ///< SchedulerRegistry name
  double weight = 1.0;            ///< share for RouterKind::kWeighted
  std::optional<sim::FailureConfig> failures;  ///< per-cluster outages
};

/// One member at run time: realised cluster, policy instance, failure
/// trace, and the stepwise engine. Owns everything the engine borrows.
class ClusterNode {
 public:
  /// Realises `spec` for replication substreams derived from the given
  /// RNGs (cluster structure, outage trace, simulation stream).
  ClusterNode(const ClusterSpec& spec, const exp::SchedulerParams& params,
              const sim::EngineConfig& engine_cfg, util::Rng cluster_rng,
              util::Rng failure_rng, util::Rng sim_rng);

  const std::string& name() const noexcept { return name_; }
  sim::Engine& engine() noexcept { return *engine_; }
  const sim::Engine& engine() const noexcept { return *engine_; }

  /// Migration counters (maintained by Federation).
  std::size_t routed = 0;        ///< tasks initially routed here
  std::size_t migrated_in = 0;   ///< tasks received over links
  std::size_t migrated_out = 0;  ///< tasks pushed/stolen away

 private:
  std::string name_;
  sim::Cluster cluster_;
  sim::FailureTrace trace_;
  std::unique_ptr<sim::SchedulingPolicy> policy_;
  sim::EngineConfig engine_cfg_;
  std::unique_ptr<sim::Engine> engine_;
};

/// Full federation description; `Federation` realises one replication.
struct FederationConfig {
  std::string name = "federation";
  std::vector<ClusterSpec> clusters;
  Topology topology{1};
  RouterKind router = RouterKind::kRoundRobin;
  MigrationKind migration = MigrationKind::kNone;
  /// Backlog high-water mark for kThreshold/kBroadcast (tasks).
  std::size_t migration_threshold = 32;
  /// Tasks moved per migration decision.
  std::size_t migration_chunk = 8;
  /// Global arrival stream (split across clusters by the router).
  exp::WorkloadSpec workload;
  /// Per-cluster scheduler options (the [scheduler] section).
  exp::SchedulerParams scheduler_params;
  std::uint64_t seed = 42;
  std::size_t replications = 3;
  /// Engine knobs shared by every cluster.
  double comm_nu = 0.5;
  double rate_nu = 0.5;
  std::size_t max_event_factor = 64;
};

/// Per-cluster slice of a finished federation run.
struct ClusterResult {
  std::string name;
  sim::SimulationResult sim;     ///< the cluster's own §3 accounting
  std::size_t tasks_routed = 0;  ///< initial router share
  std::size_t migrated_in = 0;
  std::size_t migrated_out = 0;
};

/// Everything one federation replication produced.
struct FederationResult {
  double makespan = 0.0;             ///< last completion, any cluster
  std::size_t tasks_completed = 0;   ///< Σ per-cluster (== workload count)
  std::size_t migrations = 0;        ///< tasks that crossed a link
  double migrated_mflops = 0.0;      ///< work that crossed a link
  double link_busy_seconds = 0.0;    ///< Σ per-transfer wire time
  double mean_response_time = 0.0;   ///< completion − arrival, all tasks
  std::vector<ClusterResult> clusters;

  /// Flattens the federation into one SimulationResult (processors
  /// concatenated in cluster order) so the metrics:: aggregation and
  /// sink stack apply unchanged to federation sweeps.
  sim::SimulationResult as_simulation_result() const;
};

/// One federation replication: builds every ClusterNode, routes the
/// global workload, and advances clusters + transfers in timestamp order
/// until every task completed.
class Federation {
 public:
  /// Realises replication `rep` of `cfg` (validates the topology size
  /// matches the cluster list).
  Federation(const FederationConfig& cfg, std::size_t rep);

  /// Runs to completion. Throws std::runtime_error when the federation
  /// wedges (no events, no transfers, and no migration can move work).
  FederationResult run();

  /// Members (valid after construction; exposed for tests).
  std::size_t size() const noexcept { return nodes_.size(); }
  const ClusterNode& node(std::size_t i) const { return *nodes_[i]; }

 private:
  struct Transfer {
    std::size_t to = 0;
    workload::Task task;
  };

  std::size_t route(const workload::Task& task) const;
  void maybe_migrate(std::size_t from);
  void send(std::size_t from, std::size_t to, workload::Task task);

  const FederationConfig cfg_;
  Topology topology_;
  std::vector<std::unique_ptr<ClusterNode>> nodes_;
  sim::CalendarQueue<Transfer> transfers_;
  std::size_t total_tasks_ = 0;
  std::size_t migrations_ = 0;
  double migrated_mflops_ = 0.0;
  double link_busy_seconds_ = 0.0;
  double now_ = 0.0;
  std::vector<double> weight_cdf_;  // for RouterKind::kWeighted
};

/// Runs one replication (convenience wrapper).
FederationResult run_federation(const FederationConfig& cfg, std::size_t rep);

/// Runs every replication, optionally in parallel on util::global_pool().
/// Results are indexed by replication and independent of thread count.
std::vector<FederationResult> run_federation_replications(
    const FederationConfig& cfg, bool parallel = true);

/// Parses the [federation]/[cluster.<name>]/[link.<a>.<b>] sections of an
/// INI config (key reference in docs/federation.md); [workload] goes
/// through exp::workload_from_config, the scenario parser. Throws
/// std::runtime_error on unknown topology/router/migration/dist/arrival
/// names, unknown cluster references, a missing cluster list, and zero
/// replications, processors or tasks (naming the key).
FederationConfig federation_from_config(const util::Config& cfg);

}  // namespace gasched::fed
