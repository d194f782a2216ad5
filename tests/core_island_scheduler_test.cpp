// Unit tests for the island-model branch of GeneticBatchScheduler (PNI):
// the scheduler-level behaviour on top of ga/island.hpp, which
// ga_island_test covers at the GA level.

#include <gtest/gtest.h>

#include <set>

#include "core/genetic_scheduler.hpp"

namespace gasched::core {
namespace {

sim::SystemView make_view(std::vector<double> rates,
                          std::vector<double> comm = {}) {
  sim::SystemView v;
  v.procs.resize(rates.size());
  for (std::size_t j = 0; j < rates.size(); ++j) {
    v.procs[j].id = static_cast<sim::ProcId>(j);
    v.procs[j].rate = rates[j];
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

GeneticSchedulerConfig quick_cfg(std::size_t islands) {
  GeneticSchedulerConfig cfg;
  cfg.ga.max_generations = 50;
  cfg.ga.population = 8;
  cfg.dynamic_batch = false;
  cfg.fixed_batch = 12;
  cfg.islands = islands;
  cfg.migration_interval = 10;
  return cfg;
}

TEST(IslandScheduler, FactorySetsNameAndConfig) {
  const auto pni = make_pn_island_scheduler(4);
  EXPECT_EQ(pni->name(), "PNI");
  EXPECT_EQ(pni->config().islands, 4u);
  EXPECT_TRUE(pni->config().use_comm_estimates);
  EXPECT_TRUE(pni->config().rebalance);
}

TEST(IslandScheduler, AssignsEveryConsumedTaskExactlyOnce) {
  const auto view = make_view({10.0, 25.0, 60.0}, {0.5, 1.0, 0.2});
  const std::vector<double> sizes{120, 40, 900, 77, 310, 15,
                                  222, 68, 433, 12, 600, 50};
  auto q = tasks_of_sizes(sizes);
  auto pni = make_pn_island_scheduler(3, quick_cfg(3));
  util::Rng rng(5);
  const auto a = pni->invoke(view, q, rng);
  EXPECT_TRUE(q.empty());
  EXPECT_EQ(a.total(), sizes.size());
  std::set<workload::TaskId> seen;
  for (const auto& queue : a.per_proc) {
    for (const auto id : queue) EXPECT_TRUE(seen.insert(id).second);
  }
  EXPECT_EQ(seen.size(), sizes.size());
}

TEST(IslandScheduler, DeterministicRegardlessOfIslandParallelism) {
  const auto view = make_view({10.0, 25.0, 60.0, 90.0}, {0.5, 1.0, 0.2, 2.0});
  const std::vector<double> sizes{120, 40, 900, 77, 310, 15,
                                  222, 68, 433, 12, 600, 50};
  auto run = [&](bool parallel) {
    auto cfg = quick_cfg(4);
    cfg.island_parallel = parallel;
    auto q = tasks_of_sizes(sizes);
    auto pni = make_pn_island_scheduler(4, cfg);
    util::Rng rng(9);
    return pni->invoke(view, q, rng);
  };
  const auto a = run(true);
  const auto b = run(false);
  ASSERT_EQ(a.per_proc.size(), b.per_proc.size());
  for (std::size_t j = 0; j < a.per_proc.size(); ++j) {
    EXPECT_EQ(a.per_proc[j], b.per_proc[j]) << "proc " << j;
  }
}

TEST(IslandScheduler, IslandSearchNotWorseThanSingleMicroGa) {
  // 4 islands spend 4x the generations of one micro GA; on a rugged
  // instance the estimated makespan of the chosen schedule should not be
  // worse (same seed, same batch).
  const auto view = make_view({7.0, 13.0, 29.0, 61.0}, {2.0, 0.3, 1.1, 4.0});
  const std::vector<double> sizes{512, 37, 1024, 240, 777, 64,
                                  350, 128, 905, 18,  443, 610};
  const ScheduleEvaluator eval(sizes, view, true);

  auto estimated = [&](const sim::BatchAssignment& a) {
    // Slot i is task id i; queues keep the assignment's order.
    std::vector<std::size_t> order, slot_proc(sizes.size());
    for (std::size_t j = 0; j < a.per_proc.size(); ++j) {
      for (const auto id : a.per_proc[j]) {
        order.push_back(static_cast<std::size_t>(id));
        slot_proc[order.back()] = j;
      }
    }
    FlatSchedule s;
    s.assign_ordered(order, slot_proc, view.size());
    return eval.evaluate(s).makespan;
  };

  auto qp = tasks_of_sizes(sizes);
  auto pn = std::make_unique<GeneticBatchScheduler>(quick_cfg(1), "PN");
  util::Rng rng_pn(21);
  const double pn_ms = estimated(pn->invoke(view, qp, rng_pn));

  auto qi = tasks_of_sizes(sizes);
  auto pni = make_pn_island_scheduler(4, quick_cfg(4));
  util::Rng rng_pni(21);
  const double pni_ms = estimated(pni->invoke(view, qi, rng_pni));

  EXPECT_LE(pni_ms, 1.05 * pn_ms);
}

}  // namespace
}  // namespace gasched::core
