#pragma once
// The paper's batch genetic scheduler (PN), and the ZO baseline it extends
// (Zomaya & Teh 2001, converted to heterogeneous processors per §4.1).
//
// Both are sim::SchedulingPolicy implementations driven by the same GA
// machinery; they differ in exactly the ways the paper describes:
//
//                         PN (this paper)        ZO (baseline)
//   comm-cost prediction  yes (smoothed Γc_j)    no
//   re-balance heuristic  1 pass/individual/gen  none
//   batch size            dynamic ⌊√(Γs+1)⌋      fixed
//
// Operators (shared): roulette-wheel selection, cycle crossover, random
// swap mutation, list-scheduling initial population, elitism, stop at
// 1000 generations or when the target makespan is reached.

#include <memory>
#include <string>

#include "core/encoding.hpp"
#include "core/fitness.hpp"
#include "core/init.hpp"
#include "ga/engine.hpp"
#include "sim/policy.hpp"
#include "util/smoothing.hpp"

namespace gasched::core {

/// Configuration for GeneticBatchScheduler.
struct GeneticSchedulerConfig {
  /// GA parameters (population 20, ≤1000 generations by default).
  ga::GaConfig ga;
  /// Fraction of tasks placed randomly (vs earliest-finish) when building
  /// the initial population.
  double random_init_fraction = 0.5;
  /// Use smoothed per-link communication estimates in the fitness function
  /// (true = PN, false = ZO).
  bool use_comm_estimates = true;
  /// Apply the re-balancing heuristic (`ga.improvement_passes` per
  /// individual per generation). PN: true; ZO: false.
  bool rebalance = true;
  /// Random-search probes per re-balance (paper: 5).
  std::size_t rebalance_probes = 5;
  /// Dynamic batch sizing H = ⌊√(Γs + 1)⌋ (§3.7). When false,
  /// `fixed_batch` tasks are taken per invocation.
  bool dynamic_batch = true;
  /// Batch size when dynamic_batch is false (paper Fig 5 uses 200).
  std::size_t fixed_batch = 200;
  /// Smoothing factor ν for the idle-time sequence s_p (§3.7).
  double batch_nu = 0.5;
  /// Wall-clock budget per invocation (seconds); 0 disables. This is the
  /// practical form of §3.4's third stopping condition ("the GA will also
  /// stop evolving if one of the processors becomes idle") — pair it with
  /// EngineConfig::sched_time_scale so scheduling time costs simulated
  /// time and processors really can go idle waiting for a schedule.
  double max_wall_seconds = 0.0;
  /// Dynamic batch bounds. min_batch 0 means "at least one task per
  /// processor" (max(M, 1)); max_batch caps GA cost (Θ(H²) per §3.7).
  std::size_t min_batch = 0;
  std::size_t max_batch = 1000;
  /// Evolve with an island-model parallel GA (ga/island.hpp) when > 1:
  /// `islands` sub-populations of `ga.population` individuals with ring
  /// migration. 1 = the paper's single-population micro GA.
  std::size_t islands = 1;
  /// Generations between migrations (island mode only).
  std::size_t migration_interval = 25;
  /// Individuals exchanged per migration (island mode only).
  std::size_t migrants = 2;
  /// Run islands on the shared thread pool (results are identical either
  /// way; this only affects wall time).
  bool island_parallel = true;
};

/// PN/ZO batch scheduler: consumes a batch from the unscheduled queue and
/// evolves a schedule for it with a GA.
class GeneticBatchScheduler final : public sim::SchedulingPolicy {
 public:
  /// `display_name` is used in reports ("PN", "ZO", ...).
  GeneticBatchScheduler(GeneticSchedulerConfig cfg, std::string display_name);

  sim::BatchAssignment invoke(const sim::SystemView& view,
                              std::deque<workload::Task>& queue,
                              util::Rng& rng) override;

  std::string name() const override { return name_; }

  /// Batch size the scheduler would use right now for `view` (visible for
  /// tests and the batch-size ablation).
  std::size_t next_batch_size(const sim::SystemView& view);

  /// Configuration (read-only).
  const GeneticSchedulerConfig& config() const noexcept { return cfg_; }

 private:
  GeneticSchedulerConfig cfg_;
  std::string name_;
  util::Smoother idle_smoother_;  // Γ over the s_p sequence
  FlatSchedule decode_scratch_;   // reused final-decode buffers
};

/// Factory: the paper's scheduler with default parameters.
std::unique_ptr<GeneticBatchScheduler> make_pn_scheduler(
    GeneticSchedulerConfig cfg = {});

/// Factory: the ZO baseline (no comm prediction, no re-balance, fixed
/// batch of `fixed_batch`).
std::unique_ptr<GeneticBatchScheduler> make_zo_scheduler(
    std::size_t fixed_batch = 200);

/// Factory: PN evolved with an island-model parallel GA ("PNI") —
/// `islands` micro-populations with ring migration (see ga/island.hpp).
std::unique_ptr<GeneticBatchScheduler> make_pn_island_scheduler(
    std::size_t islands = 4, GeneticSchedulerConfig cfg = {});

}  // namespace gasched::core
