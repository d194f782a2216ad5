// Tests for makespan lower bounds and the exact branch-and-bound solver
// (metrics/bounds.hpp), plus the "near-optimal" verification the paper
// asserts but never quantifies: every informed scheduler in the library
// must land close to the exact optimum on small instances.

#include "metrics/bounds.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>

#include "core/genetic_scheduler.hpp"
#include "meta/aco.hpp"
#include "meta/hill_climb.hpp"
#include "meta/sa.hpp"
#include "meta/tabu.hpp"

namespace gasched::metrics {
namespace {

TEST(Bounds, ValidatesInstances) {
  EXPECT_THROW(makespan_lower_bound({{1.0}, {}, {}, {}}),
               std::invalid_argument);
  EXPECT_THROW(makespan_lower_bound({{1.0}, {0.0}, {}, {}}),
               std::invalid_argument);
  EXPECT_THROW(makespan_lower_bound({{1.0}, {1.0}, {1.0, 2.0}, {}}),
               std::invalid_argument);
  EXPECT_THROW(makespan_lower_bound({{1.0}, {1.0}, {}, {1.0, 2.0}}),
               std::invalid_argument);
}

TEST(Bounds, RejectsNanAndNegativeSizesAndLoads) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  EXPECT_THROW(makespan_lower_bound({{1.0, nan}, {1.0}, {}, {}}),
               std::invalid_argument);
  EXPECT_THROW(makespan_lower_bound({{nan, 1.0}, {1.0}, {}, {}}),
               std::invalid_argument);
  EXPECT_THROW(makespan_lower_bound({{-1.0}, {1.0}, {}, {}}),
               std::invalid_argument);
  EXPECT_THROW(makespan_lower_bound({{1.0}, {1.0}, {nan}, {}}),
               std::invalid_argument);
  EXPECT_THROW(makespan_lower_bound({{1.0}, {1.0}, {-1.0}, {}}),
               std::invalid_argument);
  // Zero sizes, either sign, stay valid instances.
  EXPECT_EQ(makespan_lower_bound({{0.0, -0.0}, {2.0}, {}, {}}), 0.0);
}

/// The critical-task bound as an N × M scan, the way makespan_lower_bound
/// computed it before the O(N + M) form (left out when `critical` is
/// false); the rest is copied unchanged.
double reference_lower_bound(const BoundInstance& inst, bool critical) {
  const std::size_t M = inst.rates.size();
  const std::size_t N = inst.task_sizes.size();
  auto pending = [&](std::size_t j) {
    return inst.pending_mflops.empty() ? 0.0 : inst.pending_mflops[j];
  };
  auto comm = [&](std::size_t j) {
    return inst.comm_costs.empty() ? 0.0 : inst.comm_costs[j];
  };
  double total_rate = 0.0;
  double min_comm = std::numeric_limits<double>::infinity();
  double min_comm_rate = std::numeric_limits<double>::infinity();
  double max_delta = 0.0;
  for (std::size_t j = 0; j < M; ++j) {
    total_rate += inst.rates[j];
    min_comm = std::min(min_comm, comm(j));
    min_comm_rate = std::min(min_comm_rate, comm(j) * inst.rates[j]);
    max_delta = std::max(max_delta, pending(j) / inst.rates[j]);
  }
  double total_work = 0.0;
  for (const double t : inst.task_sizes) total_work += t;
  double total_load = total_work;
  for (std::size_t j = 0; j < M; ++j) total_load += pending(j);
  const double comm_work =
      N > 0 && std::isfinite(min_comm_rate)
          ? static_cast<double>(N) * min_comm_rate
          : 0.0;
  double bound = (total_load + comm_work) / total_rate;
  if (N > 0 && std::isfinite(min_comm)) {
    const double per_proc =
        std::ceil(static_cast<double>(N) / static_cast<double>(M));
    bound = std::max(bound, per_proc * min_comm);
  }
  for (const double t : inst.task_sizes) {
    if (!critical) break;
    double best = std::numeric_limits<double>::infinity();
    for (std::size_t j = 0; j < M; ++j) {
      best = std::min(best, t / inst.rates[j] + comm(j));
    }
    bound = std::max(bound, best);
  }
  return std::max(bound, max_delta);
}

TEST(Bounds, LinearCriticalTaskBoundMatchesTheFullScanBitForBit) {
  util::Rng rng(2024);
  const double tiny = std::numeric_limits<double>::denorm_min();
  const double huge = std::numeric_limits<double>::max();
  // Draws a value from a mix of ordinary, tied, zero, subnormal and huge
  // magnitudes, so rounding ties and overflow/underflow all occur.
  auto draw = [&](double lo, double hi) {
    switch (rng.index(8)) {
      case 0:
        return 0.0;
      case 1:
        return -0.0;
      case 2:
        return tiny * static_cast<double>(1 + rng.index(1000));
      case 3:
        return huge / static_cast<double>(1 + rng.index(4));
      case 4:
        return std::ldexp(1.0, static_cast<int>(rng.index(40)) - 20);
      default:
        return rng.uniform(lo, hi);
    }
  };
  std::size_t critical_won = 0;
  for (int trial = 0; trial < 4000; ++trial) {
    BoundInstance inst;
    const std::size_t M = 1 + rng.index(12);
    const std::size_t N = rng.index(30);
    for (std::size_t j = 0; j < M; ++j) {
      double r = draw(0.5, 100.0);
      if (!(r > 0.0)) r = 1.0;
      inst.rates.push_back(r);
    }
    if (rng.bernoulli(0.7)) {
      for (std::size_t j = 0; j < M; ++j) {
        inst.comm_costs.push_back(draw(0.0, 5.0));
      }
    }
    if (rng.bernoulli(0.3)) {
      for (std::size_t j = 0; j < M; ++j) {
        inst.pending_mflops.push_back(draw(0.0, 50.0));
      }
    }
    // Few distinct sizes, so the largest is often tied.
    std::vector<double> palette(1 + rng.index(4));
    for (double& t : palette) t = draw(1.0, 1000.0);
    for (std::size_t i = 0; i < N; ++i) {
      inst.task_sizes.push_back(palette[rng.index(palette.size())]);
    }
    const double want = reference_lower_bound(inst, true);
    const double got = makespan_lower_bound(inst);
    ASSERT_EQ(std::bit_cast<std::uint64_t>(got),
              std::bit_cast<std::uint64_t>(want))
        << "trial " << trial << ": " << got << " vs " << want;
    const double without = reference_lower_bound(inst, false);
    if (std::bit_cast<std::uint64_t>(without) !=
        std::bit_cast<std::uint64_t>(want)) {
      ++critical_won;
    }
  }
  // The critical-task term decided a good share of the instances.
  EXPECT_GT(critical_won, 400u);
}

TEST(Bounds, WorkBoundForDivisibleLoad) {
  // 12 unit tasks on rates 1+2: W/ΣP = 12/3 = 4.
  BoundInstance inst;
  inst.task_sizes.assign(12, 1.0);
  inst.rates = {1.0, 2.0};
  EXPECT_DOUBLE_EQ(makespan_lower_bound(inst), 4.0);
}

TEST(Bounds, CriticalTaskDominatesForOneHugeTask) {
  BoundInstance inst;
  inst.task_sizes = {100.0};
  inst.rates = {1.0, 10.0};
  inst.comm_costs = {0.5, 2.0};
  // Best placement: 100/10 + 2 = 12 (vs 100/1 + 0.5 = 100.5).
  EXPECT_DOUBLE_EQ(makespan_lower_bound(inst), 12.0);
}

TEST(Bounds, PigeonholeDominatesForCommHeavyTinyTasks) {
  BoundInstance inst;
  inst.task_sizes.assign(10, 1e-9);
  inst.rates = {1.0, 1.0};
  inst.comm_costs = {3.0, 3.0};
  // ceil(10/2) = 5 dispatches on some processor, 3 s each.
  EXPECT_GE(makespan_lower_bound(inst), 15.0);
}

TEST(Bounds, BusiestExistingLoadIsAFloor) {
  BoundInstance inst;
  inst.task_sizes = {};
  inst.rates = {1.0, 10.0};
  inst.pending_mflops = {40.0, 0.0};
  EXPECT_DOUBLE_EQ(makespan_lower_bound(inst), 40.0);
  EXPECT_DOUBLE_EQ(optimal_makespan_exact(inst), 40.0);
}

TEST(ExactSolver, MatchesHandComputedInstance) {
  // Two procs (1, 2 Mflop/s), tasks {2, 2, 4}, no comm. Optimal: {4}→P2
  // (2 s), {2,2}→P1 (4 s)? That's 4. Better: {2}→P1 (2), {2,4}→P2 (3) →
  // makespan 3.
  BoundInstance inst;
  inst.task_sizes = {2.0, 2.0, 4.0};
  inst.rates = {1.0, 2.0};
  EXPECT_DOUBLE_EQ(optimal_makespan_exact(inst), 3.0);
}

TEST(ExactSolver, AccountsForCommAndPending) {
  // One proc busy (δ = 5 s), one idle but slow, comm asymmetric.
  BoundInstance inst;
  inst.task_sizes = {10.0};
  inst.rates = {10.0, 1.0};
  inst.pending_mflops = {50.0, 0.0};
  inst.comm_costs = {1.0, 1.0};
  // P0: 5 + 1 + 1 = 7; P1: 0 + 10 + 1 = 11 → optimum 7... but makespan
  // includes P0's δ = 5 either way: placing on P1 gives max(5, 11) = 11,
  // on P0 gives max(7, 0) = 7.
  EXPECT_DOUBLE_EQ(optimal_makespan_exact(inst), 7.0);
}

TEST(ExactSolver, ThrowsWhenInstanceTooLarge) {
  BoundInstance inst;
  inst.task_sizes.assign(14, 1.0);
  inst.rates = {1.0, 1.1, 1.2, 1.3};
  EXPECT_THROW(optimal_makespan_exact(inst, 100), std::invalid_argument);
}

/// Random small instances: the lower bound must never exceed the exact
/// optimum, and the optimum must never beat the bound's logic.
class BoundVsExactTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(BoundVsExactTest, LowerBoundIsValid) {
  util::Rng rng(GetParam());
  BoundInstance inst;
  const std::size_t M = 2 + rng.index(2);       // 2..3 processors
  const std::size_t N = 4 + rng.index(6);       // 4..9 tasks
  for (std::size_t j = 0; j < M; ++j) {
    inst.rates.push_back(rng.uniform(5.0, 50.0));
    inst.pending_mflops.push_back(rng.bernoulli(0.5) ? rng.uniform(0, 200)
                                                     : 0.0);
    inst.comm_costs.push_back(rng.uniform(0.0, 3.0));
  }
  for (std::size_t i = 0; i < N; ++i) {
    inst.task_sizes.push_back(rng.uniform(10.0, 500.0));
  }
  const double opt = optimal_makespan_exact(inst);
  const double lb = makespan_lower_bound(inst);
  EXPECT_LE(lb, opt + 1e-9) << "invalid lower bound";
  EXPECT_GT(lb, 0.0);
  // On instances this small the bound should also be reasonably tight.
  EXPECT_GE(lb, 0.25 * opt);
}

INSTANTIATE_TEST_SUITE_P(RandomInstances, BoundVsExactTest,
                         ::testing::Range<std::uint64_t>(1, 41));

// ----------------------------------------- relaxation lower bound ----

TEST(RelaxationBound, DisabledFallsBackToCombinatorial) {
  BoundInstance inst;
  inst.task_sizes = {10.0, 20.0, 30.0};
  inst.rates = {1.0, 2.0};
  RelaxationBoundOptions off;
  off.enabled = false;
  EXPECT_DOUBLE_EQ(relaxation_lower_bound(inst, off),
                   makespan_lower_bound(inst));
}

TEST(RelaxationBound, SingleProcessorIsNearExact) {
  // On one processor the relaxation has no fractional freedom: the
  // optimum is δ + Σ(t/P + c) and both bounds should essentially hit it.
  BoundInstance inst;
  inst.task_sizes = {10.0, 25.0, 40.0};
  inst.rates = {5.0};
  inst.pending_mflops = {15.0};
  inst.comm_costs = {0.5};
  const double opt = optimal_makespan_exact(inst);
  EXPECT_DOUBLE_EQ(opt, 3.0 + (10.0 + 25.0 + 40.0) / 5.0 + 3 * 0.5);
  const double lb = relaxation_lower_bound(inst);
  EXPECT_LE(lb, opt + 1e-9);
  EXPECT_GE(lb, opt * (1.0 - 1e-9));
}

TEST(RelaxationBound, AllEqualRatesMatchesDivisibleLoad) {
  // Identical processors, no comm: the relaxation spreads work evenly,
  // T* = W/ΣP — the work bound exactly, so lb_qp == lb_comb here.
  BoundInstance inst;
  inst.task_sizes.assign(12, 3.0);
  inst.rates.assign(4, 2.0);
  const double lb_comb = makespan_lower_bound(inst);
  const double lb_qp = relaxation_lower_bound(inst);
  EXPECT_DOUBLE_EQ(lb_comb, 36.0 / 8.0);
  EXPECT_GE(lb_qp, lb_comb);
  EXPECT_NEAR(lb_qp, lb_comb, 1e-6);
  EXPECT_LE(lb_qp, optimal_makespan_exact(inst) + 1e-9);
}

TEST(RelaxationBound, CommCostDominatedInstanceStaysValid) {
  // Tiny compute, heavy per-dispatch comm: the pigeonhole term drives
  // lb_comb, and the relaxation (which prices comm per fractional
  // assignment) must stay a valid bound and at least match it.
  BoundInstance inst;
  inst.task_sizes.assign(8, 1e-6);
  inst.rates = {1.0, 1.0};
  inst.comm_costs = {4.0, 4.0};
  const double opt = optimal_makespan_exact(inst);
  const double lb_comb = makespan_lower_bound(inst);
  const double lb_qp = relaxation_lower_bound(inst);
  EXPECT_GE(lb_comb, 16.0);  // ceil(8/2) = 4 dispatches × 4 s
  EXPECT_GE(lb_qp, lb_comb);
  EXPECT_LE(lb_qp, opt + 1e-9);
}

TEST(RelaxationBound, EmptyOptionalVectorsMatchExplicitZeros) {
  // Empty pending_mflops/comm_costs mean "all zeros"; spelling the zeros
  // out must not change a single bit of any bound (same arithmetic, same
  // order) — the solver path included.
  BoundInstance sparse;
  sparse.task_sizes = {7.0, 11.0, 13.0, 17.0};
  sparse.rates = {2.0, 3.0, 5.0};

  BoundInstance dense = sparse;
  dense.pending_mflops.assign(3, 0.0);
  dense.comm_costs.assign(3, 0.0);

  EXPECT_EQ(makespan_lower_bound(sparse), makespan_lower_bound(dense));
  EXPECT_EQ(relaxation_lower_bound(sparse), relaxation_lower_bound(dense));
  EXPECT_EQ(optimal_makespan_exact(sparse), optimal_makespan_exact(dense));
}

TEST(RelaxationBound, ValidatesLikeCombinatorialBound) {
  EXPECT_THROW(relaxation_lower_bound({{1.0}, {}, {}, {}}),
               std::invalid_argument);
  EXPECT_THROW(relaxation_lower_bound({{1.0}, {-1.0}, {}, {}}),
               std::invalid_argument);
}

// ------------------------------------------------ near-optimality ----

sim::SystemView view_of(const BoundInstance& inst) {
  sim::SystemView v;
  v.procs.resize(inst.rates.size());
  for (std::size_t j = 0; j < inst.rates.size(); ++j) {
    v.procs[j].id = static_cast<sim::ProcId>(j);
    v.procs[j].rate = inst.rates[j];
    v.procs[j].pending_mflops =
        inst.pending_mflops.empty() ? 0.0 : inst.pending_mflops[j];
    v.procs[j].comm_estimate =
        inst.comm_costs.empty() ? 0.0 : inst.comm_costs[j];
    v.procs[j].comm_observations = 1;
  }
  return v;
}

double policy_makespan(sim::SchedulingPolicy& policy,
                       const BoundInstance& inst, std::uint64_t seed) {
  const auto view = view_of(inst);
  std::deque<workload::Task> q;
  for (std::size_t i = 0; i < inst.task_sizes.size(); ++i) {
    q.push_back({static_cast<workload::TaskId>(i), inst.task_sizes[i], 0.0});
  }
  util::Rng rng(seed);
  const auto a = policy.invoke(view, q, rng);
  double ms = 0.0;
  for (std::size_t j = 0; j < view.size(); ++j) {
    double c = view.procs[j].pending_mflops / view.procs[j].rate;
    for (const auto id : a.per_proc[j]) {
      c += inst.task_sizes[static_cast<std::size_t>(id)] /
               view.procs[j].rate +
           view.procs[j].comm_estimate;
    }
    ms = std::max(ms, c);
  }
  return ms;
}

TEST(NearOptimality, EverySearcherIsWithin15PercentOfExactOptimum) {
  util::Rng inst_rng(2025);
  for (int trial = 0; trial < 5; ++trial) {
    BoundInstance inst;
    const std::size_t M = 3;
    for (std::size_t j = 0; j < M; ++j) {
      inst.rates.push_back(inst_rng.uniform(10.0, 60.0));
      inst.comm_costs.push_back(inst_rng.uniform(0.1, 1.5));
    }
    for (int i = 0; i < 9; ++i) {
      inst.task_sizes.push_back(inst_rng.uniform(20.0, 400.0));
    }
    const double opt = optimal_makespan_exact(inst);

    core::GeneticSchedulerConfig pn_cfg;
    pn_cfg.dynamic_batch = false;
    pn_cfg.fixed_batch = 16;
    pn_cfg.ga.max_generations = 200;
    const auto pn = core::make_pn_scheduler(pn_cfg);
    meta::SaConfig sa_cfg;
    sa_cfg.batch.batch_size = 16;
    const auto sa = meta::make_sa_scheduler(sa_cfg);
    meta::TabuConfig ts_cfg;
    ts_cfg.batch.batch_size = 16;
    const auto ts = meta::make_tabu_scheduler(ts_cfg);
    meta::AcoConfig aco_cfg;
    aco_cfg.batch.batch_size = 16;
    const auto aco = meta::make_aco_scheduler(aco_cfg);
    meta::HillClimbConfig hc_cfg;
    hc_cfg.batch.batch_size = 16;
    const auto hc = meta::make_hill_climb_scheduler(hc_cfg);

    const std::uint64_t seed = 77 + static_cast<std::uint64_t>(trial);
    EXPECT_LE(policy_makespan(*pn, inst, seed), 1.15 * opt) << "PN " << trial;
    EXPECT_LE(policy_makespan(*sa, inst, seed), 1.15 * opt) << "SA " << trial;
    EXPECT_LE(policy_makespan(*ts, inst, seed), 1.15 * opt) << "TS " << trial;
    EXPECT_LE(policy_makespan(*aco, inst, seed), 1.15 * opt) << "ACO "
                                                             << trial;
    EXPECT_LE(policy_makespan(*hc, inst, seed), 1.15 * opt) << "HC " << trial;
  }
}

}  // namespace
}  // namespace gasched::metrics
