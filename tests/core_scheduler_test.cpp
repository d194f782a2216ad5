// Tests for the PN and ZO genetic batch schedulers as scheduling policies.

#include "core/genetic_scheduler.hpp"

#include <gtest/gtest.h>

#include <cstdlib>
#include <set>

namespace gasched::core {
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
  }
  return v;
}

std::deque<workload::Task> make_queue(std::size_t n, util::Rng& rng,
                                      double lo = 10.0, double hi = 500.0) {
  std::deque<workload::Task> q;
  for (std::size_t i = 0; i < n; ++i) {
    q.push_back({static_cast<workload::TaskId>(i), rng.uniform(lo, hi), 0.0});
  }
  return q;
}

GeneticSchedulerConfig quick_config() {
  GeneticSchedulerConfig cfg;
  cfg.ga.max_generations = 60;
  cfg.ga.population = 12;
  return cfg;
}

TEST(GeneticScheduler, AssignsEveryConsumedTaskExactlyOnce) {
  auto pn = make_pn_scheduler(quick_config());
  util::Rng rng(1);
  auto queue = make_queue(80, rng);
  const auto view = make_view({10, 20, 30, 40});
  const auto a = pn->invoke(view, queue, rng);
  const std::size_t consumed = 80 - queue.size();
  EXPECT_EQ(a.total(), consumed);
  std::set<workload::TaskId> seen;
  for (const auto& per : a.per_proc) {
    for (const auto id : per) EXPECT_TRUE(seen.insert(id).second);
  }
}

TEST(GeneticScheduler, ConsumesFromFrontFCFS) {
  auto pn = make_pn_scheduler(quick_config());
  util::Rng rng(2);
  auto queue = make_queue(50, rng);
  const auto view = make_view({10, 20});
  const auto a = pn->invoke(view, queue, rng);
  // Remaining tasks must be the tail of the original queue.
  std::set<workload::TaskId> assigned;
  for (const auto& per : a.per_proc) {
    for (const auto id : per) assigned.insert(id);
  }
  for (const auto& t : queue) EXPECT_FALSE(assigned.contains(t.id));
  // Assigned ids must be a prefix of 0..49.
  const auto consumed = assigned.size();
  for (workload::TaskId id = 0; id < static_cast<workload::TaskId>(consumed);
       ++id) {
    EXPECT_TRUE(assigned.contains(id));
  }
}

TEST(GeneticScheduler, EmptyQueueYieldsEmptyAssignment) {
  auto pn = make_pn_scheduler(quick_config());
  util::Rng rng(3);
  std::deque<workload::Task> queue;
  const auto a = pn->invoke(make_view({10, 20}), queue, rng);
  EXPECT_EQ(a.total(), 0u);
}

TEST(GeneticScheduler, FixedBatchConsumesExactlyBatchSize) {
  GeneticSchedulerConfig cfg = quick_config();
  cfg.dynamic_batch = false;
  cfg.fixed_batch = 25;
  GeneticBatchScheduler sched(cfg, "T");
  util::Rng rng(4);
  auto queue = make_queue(100, rng);
  sched.invoke(make_view({10, 20, 30}), queue, rng);
  EXPECT_EQ(queue.size(), 75u);
}

TEST(GeneticScheduler, DynamicBatchGrowsWithDrainTime) {
  GeneticSchedulerConfig cfg = quick_config();
  cfg.dynamic_batch = true;
  cfg.min_batch = 1;
  GeneticBatchScheduler sched(cfg, "T");
  // Idle cluster: s = 0 ⇒ H = floor(sqrt(1)) = 1.
  EXPECT_EQ(sched.next_batch_size(make_view({10, 10})), 1u);
  // Heavily loaded cluster: s = min(δ) large ⇒ larger batch. The smoother
  // has now seen {0, s}, so use a fresh scheduler for the exact value.
  GeneticBatchScheduler fresh(cfg, "T");
  // pending 4000 MFLOPs at 10 Mflop/s on both procs ⇒ s = 400 s.
  // Γ = 400 (first observation) ⇒ H = floor(sqrt(401)) = 20.
  EXPECT_EQ(fresh.next_batch_size(make_view({10, 10}, {4000, 4000})), 20u);
}

TEST(GeneticScheduler, DynamicBatchRespectsBounds) {
  GeneticSchedulerConfig cfg = quick_config();
  cfg.dynamic_batch = true;
  cfg.min_batch = 5;
  cfg.max_batch = 12;
  GeneticBatchScheduler sched(cfg, "T");
  EXPECT_EQ(sched.next_batch_size(make_view({10})), 5u);  // clamped up
  GeneticBatchScheduler sched2(cfg, "T");
  EXPECT_EQ(sched2.next_batch_size(make_view({10}, {1e9})), 12u);  // down
}

TEST(GeneticScheduler, DefaultMinBatchIsProcessorCount) {
  GeneticSchedulerConfig cfg = quick_config();
  cfg.dynamic_batch = true;
  cfg.min_batch = 0;
  GeneticBatchScheduler sched(cfg, "T");
  EXPECT_EQ(sched.next_batch_size(make_view({10, 10, 10, 10})), 4u);
}

TEST(GeneticScheduler, ProducesBalancedLoadAcrossHeterogeneousProcs) {
  // Schedule many equal tasks on procs with rates 10/20/30/40: the GA
  // should give faster processors proportionally more work.
  GeneticSchedulerConfig cfg = quick_config();
  cfg.dynamic_batch = false;
  cfg.fixed_batch = 100;
  cfg.ga.max_generations = 150;
  GeneticBatchScheduler sched(cfg, "T");
  util::Rng rng(5);
  auto queue = make_queue(100, rng, 100.0, 100.0);  // constant 100 MFLOPs
  const auto view = make_view({10, 20, 30, 40});
  const auto a = sched.invoke(view, queue, rng);
  // Completion time per proc = count * 100 / rate; max/min ratio should be
  // far below the single-processor extreme.
  double worst = 0.0, best = 1e18;
  for (std::size_t j = 0; j < 4; ++j) {
    const double t =
        static_cast<double>(a.per_proc[j].size()) * 100.0 / view.procs[j].rate;
    worst = std::max(worst, t);
    best = std::min(best, t);
  }
  EXPECT_LT(worst / std::max(best, 1e-9), 2.5);
}

TEST(GeneticScheduler, PnAvoidsExpensiveLinksWhenCommDominates) {
  // Two equal-rate procs; link 1 is 100x more expensive. PN should place
  // the bulk of tasks on proc 0; ZO (comm-blind) should split evenly.
  util::Rng rng(6);
  GeneticSchedulerConfig cfg = quick_config();
  cfg.dynamic_batch = false;
  cfg.fixed_batch = 40;
  cfg.ga.max_generations = 200;
  auto pn = make_pn_scheduler(cfg);
  auto queue_pn = make_queue(40, rng, 50.0, 50.0);
  const auto view = make_view({10, 10}, {}, {0.5, 50.0});
  const auto a_pn = pn->invoke(view, queue_pn, rng);
  EXPECT_GT(a_pn.per_proc[0].size(), a_pn.per_proc[1].size());

  auto zo = make_zo_scheduler(40);
  util::Rng rng2(6);
  auto queue_zo = make_queue(40, rng2, 50.0, 50.0);
  const auto a_zo = zo->invoke(view, queue_zo, rng2);
  const auto diff =
      std::abs(static_cast<long>(a_zo.per_proc[0].size()) -
               static_cast<long>(a_zo.per_proc[1].size()));
  EXPECT_LE(diff, 8);  // near-even split
}

TEST(GeneticScheduler, FactoriesSetDocumentedFlags) {
  auto pn = make_pn_scheduler();
  EXPECT_EQ(pn->name(), "PN");
  EXPECT_TRUE(pn->config().use_comm_estimates);
  EXPECT_TRUE(pn->config().rebalance);
  EXPECT_TRUE(pn->config().dynamic_batch);
  auto zo = make_zo_scheduler(123);
  EXPECT_EQ(zo->name(), "ZO");
  EXPECT_FALSE(zo->config().use_comm_estimates);
  EXPECT_FALSE(zo->config().rebalance);
  EXPECT_FALSE(zo->config().dynamic_batch);
  EXPECT_EQ(zo->config().fixed_batch, 123u);
}

TEST(GeneticScheduler, DeterministicGivenSeed) {
  GeneticSchedulerConfig cfg = quick_config();
  cfg.dynamic_batch = false;
  cfg.fixed_batch = 30;
  GeneticBatchScheduler s1(cfg, "T"), s2(cfg, "T");
  util::Rng r1(7), r2(7);
  auto q1 = make_queue(30, r1);
  util::Rng wr(7);
  auto q2 = make_queue(30, r2);
  const auto view = make_view({10, 20, 30});
  util::Rng g1(8), g2(8);
  const auto a = s1.invoke(view, q1, g1);
  const auto b = s2.invoke(view, q2, g2);
  EXPECT_EQ(a.per_proc, b.per_proc);
}

TEST(GeneticScheduler, ReusedSchedulerMatchesFreshOneAcrossShapes) {
  // One scheduler keeps its decode scratch across invocations; batches of
  // other sizes on other processor counts must not see what it held.
  GeneticSchedulerConfig cfg = quick_config();
  cfg.dynamic_batch = false;
  cfg.fixed_batch = 20;
  GeneticBatchScheduler reused(cfg, "T");
  const std::vector<std::vector<double>> rates = {
      {10, 20, 30, 40, 50}, {15, 25}, {10, 20, 30}, {40}, {12, 24, 36, 48}};
  const std::size_t queue_sizes[] = {30, 7, 20, 3, 12};
  for (std::size_t k = 0; k < rates.size(); ++k) {
    util::Rng wr(100 + k);
    auto q1 = make_queue(queue_sizes[k], wr);
    auto q2 = q1;
    const auto view = make_view(rates[k]);
    GeneticBatchScheduler fresh(cfg, "T");
    util::Rng g1(200 + k), g2(200 + k);
    const auto a = reused.invoke(view, q1, g1);
    const auto b = fresh.invoke(view, q2, g2);
    EXPECT_EQ(a.per_proc, b.per_proc) << "invocation " << k;
    EXPECT_EQ(q1.size(), q2.size());
    EXPECT_EQ(g1.next_u64(), g2.next_u64());
  }
}

}  // namespace
}  // namespace gasched::core
