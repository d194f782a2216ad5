// Property/fuzz tests for the makespan relaxation bound
// (opt/relaxation.hpp) on hundreds of random BoundInstances small enough
// for exact branch-and-bound. The load-bearing invariant chain, checked
// on every instance:
//
//   makespan_lower_bound  <=  relaxation_lower_bound  <=  optimal
//                         <=  any evaluated schedule's makespan
//
// plus: the certificate recomputes identically from the returned duals
// (it is plain double arithmetic, not solver state), the whole stack is
// deterministic, and early termination (tiny iteration caps) still
// yields a *valid* — merely looser — bound.

#include "opt/relaxation.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <vector>

#include "metrics/bounds.hpp"
#include "util/rng.hpp"

namespace gasched::opt {
namespace {

metrics::BoundInstance random_instance(util::Rng& rng) {
  metrics::BoundInstance inst;
  const std::size_t M = 1 + rng.index(4);   // 1..4 processors
  const std::size_t N = 3 + rng.index(10);  // 3..12 tasks
  const bool with_pending = rng.bernoulli(0.5);
  const bool with_comm = rng.bernoulli(0.7);
  for (std::size_t j = 0; j < M; ++j) {
    inst.rates.push_back(rng.uniform(5.0, 60.0));
    if (with_pending) {
      inst.pending_mflops.push_back(rng.bernoulli(0.5) ? rng.uniform(0, 300)
                                                       : 0.0);
    }
    if (with_comm) inst.comm_costs.push_back(rng.uniform(0.0, 3.0));
  }
  for (std::size_t t = 0; t < N; ++t) {
    inst.task_sizes.push_back(rng.uniform(5.0, 500.0));
  }
  return inst;
}

/// Makespan of the greedy earliest-completion schedule under the
/// instance's own cost model — a *feasible* schedule, hence an upper
/// bound on the optimum that every lower bound must stay below.
double greedy_makespan(const metrics::BoundInstance& inst) {
  const std::size_t M = inst.rates.size();
  std::vector<double> completion(M);
  for (std::size_t j = 0; j < M; ++j) {
    completion[j] =
        (inst.pending_mflops.empty() ? 0.0 : inst.pending_mflops[j]) /
        inst.rates[j];
  }
  for (const double size : inst.task_sizes) {
    std::size_t best = 0;
    double best_c = std::numeric_limits<double>::infinity();
    for (std::size_t j = 0; j < M; ++j) {
      const double c =
          completion[j] + size / inst.rates[j] +
          (inst.comm_costs.empty() ? 0.0 : inst.comm_costs[j]);
      if (c < best_c) {
        best_c = c;
        best = j;
      }
    }
    completion[best] = best_c;
  }
  return *std::max_element(completion.begin(), completion.end());
}

TEST(RelaxationProperty, InvariantChainOnFuzzedInstances) {
  constexpr int kInstances = 500;
  int tractable = 0;
  for (int trial = 0; trial < kInstances; ++trial) {
    util::Rng rng(10'000 + static_cast<std::uint64_t>(trial));
    const metrics::BoundInstance inst = random_instance(rng);
    const double scale = greedy_makespan(inst);
    const double slack = 1e-9 * std::max(scale, 1.0);

    const double lb_comb = metrics::makespan_lower_bound(inst);
    const double lb_qp = metrics::relaxation_lower_bound(inst);
    const RelaxationResult r = solve_makespan_relaxation(inst);

    // The fold makes dominance structural; certificate validity is the
    // real property.
    EXPECT_GE(lb_qp, lb_comb) << "trial " << trial;
    EXPECT_GE(r.certified_bound, 0.0) << "trial " << trial;
    EXPECT_LE(lb_qp, scale + slack)
        << "bound above a feasible schedule, trial " << trial;

    double opt = std::numeric_limits<double>::quiet_NaN();
    try {
      opt = metrics::optimal_makespan_exact(inst, 5'000'000);
    } catch (const std::invalid_argument&) {
      continue;  // search cap hit; the greedy check above still ran
    }
    ++tractable;
    EXPECT_LE(lb_comb, opt + slack) << "trial " << trial;
    EXPECT_LE(lb_qp, opt + slack)
        << "certified bound above the exact optimum, trial " << trial;
    EXPECT_LE(opt, scale + slack) << "trial " << trial;
  }
  // The cap should only rarely bite at N <= 12, M <= 4.
  EXPECT_GE(tractable, kInstances * 4 / 5);
}

TEST(RelaxationProperty, CertificateRecomputesFromReturnedDuals) {
  for (std::uint64_t seed = 1; seed <= 50; ++seed) {
    util::Rng rng(seed);
    const metrics::BoundInstance inst = random_instance(rng);
    const RelaxationResult r = solve_makespan_relaxation(inst);
    ASSERT_EQ(r.machine_duals.size(), inst.rates.size());
    for (const double l : r.machine_duals) {
      EXPECT_TRUE(std::isfinite(l));
      EXPECT_GE(l, 0.0);
    }
    // certified_bound IS certified_bound_from_duals(machine_duals): the
    // certificate is a pure function of the published duals, so an
    // independent recompute is bit-identical.
    EXPECT_DOUBLE_EQ(certified_bound_from_duals(inst, r.machine_duals),
                     r.certified_bound)
        << "seed " << seed;
  }
}

TEST(RelaxationProperty, ArbitraryNonnegativeDualsAreValidBounds) {
  // Weak duality holds for ANY λ >= 0 — not just the solver's. Random
  // multipliers must therefore never exceed the optimum.
  for (std::uint64_t seed = 1; seed <= 60; ++seed) {
    util::Rng rng(700 + seed);
    metrics::BoundInstance inst = random_instance(rng);
    // Keep the exact search cheap.
    inst.task_sizes.resize(std::min<std::size_t>(inst.task_sizes.size(), 8));
    const double opt = metrics::optimal_makespan_exact(inst);
    std::vector<double> lambda(inst.rates.size());
    for (auto& l : lambda) l = rng.uniform(0.0, 5.0);
    const double cert = certified_bound_from_duals(inst, lambda);
    EXPECT_LE(cert, opt + 1e-9 * std::max(opt, 1.0)) << "seed " << seed;
    EXPECT_GE(cert, 0.0);
  }
}

TEST(RelaxationProperty, EarlyTerminationStaysValid) {
  RelaxationOptions tight;             // defaults: converges
  RelaxationOptions truncated;
  truncated.max_iterations = 3;        // nowhere near convergence
  for (std::uint64_t seed = 1; seed <= 40; ++seed) {
    util::Rng rng(31'000 + seed);
    metrics::BoundInstance inst = random_instance(rng);
    inst.task_sizes.resize(std::min<std::size_t>(inst.task_sizes.size(), 8));
    const double opt = metrics::optimal_makespan_exact(inst);
    const RelaxationResult r = solve_makespan_relaxation(inst, truncated);
    EXPECT_LE(r.certified_bound, opt + 1e-9 * std::max(opt, 1.0))
        << "early-terminated certificate invalid, seed " << seed;
    EXPECT_GE(r.certified_bound, 0.0);
    // And the converged bound is at least as tight.
    const RelaxationResult full = solve_makespan_relaxation(inst, tight);
    EXPECT_GE(full.certified_bound, r.certified_bound - 1e-9)
        << "seed " << seed;
  }
}

TEST(RelaxationProperty, DeterministicAcrossRepeatedSolves) {
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    util::Rng rng_a(seed), rng_b(seed);
    const metrics::BoundInstance a = random_instance(rng_a);
    const metrics::BoundInstance b = random_instance(rng_b);
    const RelaxationResult ra = solve_makespan_relaxation(a);
    const RelaxationResult rb = solve_makespan_relaxation(b);
    EXPECT_EQ(ra.certified_bound, rb.certified_bound);
    EXPECT_EQ(ra.relaxation_objective, rb.relaxation_objective);
    EXPECT_EQ(ra.iterations, rb.iterations);
    ASSERT_EQ(ra.machine_duals.size(), rb.machine_duals.size());
    for (std::size_t j = 0; j < ra.machine_duals.size(); ++j) {
      EXPECT_EQ(ra.machine_duals[j], rb.machine_duals[j]);
    }
  }
}

TEST(RelaxationProperty, NoTasksReducesToDrainTime) {
  metrics::BoundInstance inst;
  inst.rates = {2.0, 4.0};
  inst.pending_mflops = {10.0, 4.0};  // δ = {5, 1}
  const RelaxationResult r = solve_makespan_relaxation(inst);
  EXPECT_TRUE(r.converged);
  EXPECT_NEAR(r.certified_bound, 5.0, 1e-9);
  EXPECT_DOUBLE_EQ(r.machine_duals[0], 1.0);
  EXPECT_DOUBLE_EQ(r.machine_duals[1], 0.0);
}

TEST(RelaxationProperty, RejectsMalformedLambda) {
  metrics::BoundInstance inst;
  inst.rates = {1.0, 1.0};
  inst.task_sizes = {1.0};
  EXPECT_THROW(certified_bound_from_duals(inst, {1.0}),
               std::invalid_argument);
  // All-zero or negative multipliers certify nothing: bound 0.
  EXPECT_DOUBLE_EQ(certified_bound_from_duals(inst, {0.0, 0.0}), 0.0);
  EXPECT_DOUBLE_EQ(certified_bound_from_duals(inst, {-1.0, -2.0}), 0.0);
}

TEST(RelaxationProperty, RejectsNaNAndNegativeSizesAndLoads) {
  // The solver shares metrics::validate_instance with the bounds, so a
  // direct call rejects what makespan_lower_bound rejects.
  metrics::BoundInstance inst;
  inst.rates = {1.0, 2.0};
  inst.task_sizes = {3.0, std::nan("")};
  EXPECT_THROW(solve_makespan_relaxation(inst), std::invalid_argument);
  EXPECT_THROW(certified_bound_from_duals(inst, {1.0, 1.0}),
               std::invalid_argument);
  inst.task_sizes = {3.0, -1.0};
  EXPECT_THROW(solve_makespan_relaxation(inst), std::invalid_argument);
  inst.task_sizes = {3.0, 1.0};
  inst.pending_mflops = {0.0, -2.0};
  EXPECT_THROW(solve_makespan_relaxation(inst), std::invalid_argument);
}

}  // namespace
}  // namespace gasched::opt
