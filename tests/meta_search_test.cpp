// Scheduler-specific tests for the local-search batch schedulers:
// configuration validation, and the "search never worsens the greedy
// start" guarantee each of SA / tabu / ACO / hill climbing makes.

#include <gtest/gtest.h>

#include "core/init.hpp"
#include "meta/aco.hpp"
#include "meta/hill_climb.hpp"
#include "meta/sa.hpp"
#include "meta/tabu.hpp"

namespace gasched::meta {
namespace {

sim::SystemView make_view(std::vector<double> rates,
                          std::vector<double> pending = {},
                          std::vector<double> comm = {}) {
  sim::SystemView v;
  v.procs.resize(rates.size());
  for (std::size_t j = 0; j < rates.size(); ++j) {
    v.procs[j].id = static_cast<sim::ProcId>(j);
    v.procs[j].rate = rates[j];
    v.procs[j].pending_mflops = j < pending.size() ? pending[j] : 0.0;
    v.procs[j].comm_estimate = j < comm.size() ? comm[j] : 0.0;
    v.procs[j].comm_observations = j < comm.size() ? 1 : 0;
  }
  return v;
}

std::deque<workload::Task> tasks_of_sizes(const std::vector<double>& sizes) {
  std::deque<workload::Task> q;
  for (std::size_t i = 0; i < sizes.size(); ++i) {
    q.push_back({static_cast<workload::TaskId>(i), sizes[i], 0.0});
  }
  return q;
}

/// A rugged instance: strongly heterogeneous rates, pre-existing load,
/// observed per-link communication estimates, and lumpy task sizes.
struct Instance {
  sim::SystemView view = make_view({7.0, 13.0, 29.0, 61.0, 97.0},
                                   {300.0, 0.0, 150.0, 0.0, 800.0},
                                   {2.0, 0.3, 1.1, 4.0, 0.6});
  std::vector<double> sizes = {512, 37, 1024, 240, 777,  64, 350, 128,
                               905, 18, 443,  610, 82,   290, 730, 55};
};

/// Makespan of the policy's assignment, evaluated with the same evaluator
/// the policy used internally (slot i == task id i).
double result_makespan(const Instance& in, const sim::BatchAssignment& a) {
  const core::ScheduleEvaluator eval(in.sizes, in.view, true);
  std::vector<std::size_t> order, slot_proc(in.sizes.size());
  for (std::size_t j = 0; j < a.per_proc.size(); ++j) {
    for (const auto id : a.per_proc[j]) {
      order.push_back(static_cast<std::size_t>(id));
      slot_proc[order.back()] = j;
    }
  }
  core::FlatSchedule s;
  s.assign_ordered(order, slot_proc, in.view.size());
  return eval.evaluate(s).makespan;
}

/// Makespan of the greedy list schedule the policy starts from, replayed
/// with an identical RNG stream (the policy's first RNG use is the same
/// list_schedule call).
double greedy_start_makespan(const Instance& in, std::uint64_t seed) {
  const core::ScheduleEvaluator eval(in.sizes, in.view, true);
  util::Rng rng(seed);
  core::FlatSchedule s;
  core::list_schedule(eval, 0.0, rng, s);
  return eval.evaluate(s).makespan;
}

template <typename PolicyPtr>
void expect_no_worse_than_greedy(PolicyPtr policy, std::uint64_t seed) {
  const Instance in;
  auto q = tasks_of_sizes(in.sizes);
  util::Rng rng(seed);
  const auto a = policy->invoke(in.view, q, rng);
  EXPECT_LE(result_makespan(in, a), greedy_start_makespan(in, seed) + 1e-9);
}

// ---------------------------------------------------------------- SA ----

TEST(SimulatedAnnealing, RejectsInvalidConfiguration) {
  SaConfig cooling_low;
  cooling_low.cooling = 0.0;
  EXPECT_THROW(SimulatedAnnealingScheduler{cooling_low},
               std::invalid_argument);
  SaConfig cooling_high;
  cooling_high.cooling = 1.0;
  EXPECT_THROW(SimulatedAnnealingScheduler{cooling_high},
               std::invalid_argument);
  SaConfig accept_bad;
  accept_bad.initial_acceptance = 1.0;
  EXPECT_THROW(SimulatedAnnealingScheduler{accept_bad}, std::invalid_argument);
  SaConfig zero_batch;
  zero_batch.batch.batch_size = 0;
  EXPECT_THROW(SimulatedAnnealingScheduler{zero_batch}, std::invalid_argument);
}

TEST(SimulatedAnnealing, NeverWorseThanGreedyStart) {
  SaConfig cfg;
  cfg.batch.batch_size = 16;
  expect_no_worse_than_greedy(make_sa_scheduler(cfg), 31);
}

TEST(SimulatedAnnealing, ImprovesARandomStart) {
  // From a fully random start the annealer must close most of the gap to
  // the greedy schedule (loose factor keeps this robust across seeds).
  const Instance in;
  SaConfig cfg;
  cfg.batch.batch_size = 16;
  cfg.batch.init_random_fraction = 1.0;
  auto policy = make_sa_scheduler(cfg);
  auto q = tasks_of_sizes(in.sizes);
  util::Rng rng(13);
  const auto a = policy->invoke(in.view, q, rng);
  EXPECT_LT(result_makespan(in, a), 1.5 * greedy_start_makespan(in, 13));
}

TEST(SimulatedAnnealing, AggressiveCoolingStillReturnsValidSchedule) {
  SaConfig cfg;
  cfg.batch.batch_size = 16;
  cfg.cooling = 0.5;
  cfg.frozen_levels = 1;
  const Instance in;
  auto q = tasks_of_sizes(in.sizes);
  util::Rng rng(3);
  const auto a = make_sa_scheduler(cfg)->invoke(in.view, q, rng);
  EXPECT_EQ(a.total(), in.sizes.size());
}

// -------------------------------------------------------------- Tabu ----

TEST(TabuSearch, NeverWorseThanGreedyStart) {
  TabuConfig cfg;
  cfg.batch.batch_size = 16;
  expect_no_worse_than_greedy(make_tabu_scheduler(cfg), 41);
}

TEST(TabuSearch, SingleIterationIsValid) {
  TabuConfig cfg;
  cfg.batch.batch_size = 16;
  cfg.max_iterations = 1;
  const Instance in;
  auto q = tasks_of_sizes(in.sizes);
  util::Rng rng(4);
  const auto a = make_tabu_scheduler(cfg)->invoke(in.view, q, rng);
  EXPECT_EQ(a.total(), in.sizes.size());
}

TEST(TabuSearch, StallTerminationRespectsBudget) {
  TabuConfig cfg;
  cfg.batch.batch_size = 16;
  cfg.stall_iterations = 1;
  cfg.max_iterations = 100000;  // must terminate via stall, not budget
  const Instance in;
  auto q = tasks_of_sizes(in.sizes);
  util::Rng rng(5);
  const auto a = make_tabu_scheduler(cfg)->invoke(in.view, q, rng);
  EXPECT_EQ(a.total(), in.sizes.size());
}

TEST(TabuSearch, ZeroBatchRejected) {
  TabuConfig cfg;
  cfg.batch.batch_size = 0;
  EXPECT_THROW(TabuSearchScheduler{cfg}, std::invalid_argument);
}

// --------------------------------------------------------------- ACO ----

TEST(AntColony, RejectsInvalidConfiguration) {
  AcoConfig zero_ants;
  zero_ants.ants = 0;
  EXPECT_THROW(AntColonyScheduler{zero_ants}, std::invalid_argument);
  AcoConfig zero_iters;
  zero_iters.iterations = 0;
  EXPECT_THROW(AntColonyScheduler{zero_iters}, std::invalid_argument);
  AcoConfig evap_bad;
  evap_bad.evaporation = 0.0;
  EXPECT_THROW(AntColonyScheduler{evap_bad}, std::invalid_argument);
  AcoConfig tau_bad;
  tau_bad.tau_min = 5.0;
  tau_bad.tau_max = 1.0;
  EXPECT_THROW(AntColonyScheduler{tau_bad}, std::invalid_argument);
}

TEST(AntColony, NeverWorseThanGreedySeed) {
  AcoConfig cfg;
  cfg.batch.batch_size = 16;
  cfg.iterations = 15;
  expect_no_worse_than_greedy(make_aco_scheduler(cfg), 51);
}

TEST(AntColony, MinimalColonyIsValid) {
  AcoConfig cfg;
  cfg.batch.batch_size = 16;
  cfg.ants = 1;
  cfg.iterations = 1;
  const Instance in;
  auto q = tasks_of_sizes(in.sizes);
  util::Rng rng(6);
  const auto a = make_aco_scheduler(cfg)->invoke(in.view, q, rng);
  EXPECT_EQ(a.total(), in.sizes.size());
}

TEST(AntColony, HighBetaTracksGreedyClosely) {
  // β ≫ α makes visibility dominate: construction approximates repeated
  // earliest-finish placement, so results stay near the greedy makespan.
  const Instance in;
  AcoConfig cfg;
  cfg.batch.batch_size = 16;
  cfg.alpha = 0.1;
  cfg.beta = 8.0;
  cfg.iterations = 10;
  auto q = tasks_of_sizes(in.sizes);
  util::Rng rng(7);
  const auto a = make_aco_scheduler(cfg)->invoke(in.view, q, rng);
  EXPECT_LE(result_makespan(in, a), 1.2 * greedy_start_makespan(in, 7));
}

// ---------------------------------------------------------------- HC ----

TEST(HillClimb, NeverWorseThanGreedyStart) {
  HillClimbConfig cfg;
  cfg.batch.batch_size = 16;
  expect_no_worse_than_greedy(make_hill_climb_scheduler(cfg), 61);
}

TEST(HillClimb, SingleRestartTinyBudgetIsValid) {
  HillClimbConfig cfg;
  cfg.batch.batch_size = 16;
  cfg.restarts = 1;
  cfg.max_samples = 4;
  const Instance in;
  auto q = tasks_of_sizes(in.sizes);
  util::Rng rng(8);
  const auto a = make_hill_climb_scheduler(cfg)->invoke(in.view, q, rng);
  EXPECT_EQ(a.total(), in.sizes.size());
}

}  // namespace
}  // namespace gasched::meta
