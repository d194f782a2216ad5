// Tests for the paper's fitness function (§3.2): ψ, relative error, and
// F = 1/E with and without communication estimates.

#include "core/fitness.hpp"

#include <gtest/gtest.h>

#include <algorithm>

namespace gasched::core {
namespace {

sim::SystemView make_view(std::vector<double> rates,
                          std::vector<double> pending = {},
                          std::vector<double> comm = {}) {
  sim::SystemView v;
  v.now = 0.0;
  v.procs.resize(rates.size());
  for (std::size_t j = 0; j < rates.size(); ++j) {
    v.procs[j].id = static_cast<sim::ProcId>(j);
    v.procs[j].rate = rates[j];
    v.procs[j].pending_mflops = j < pending.size() ? pending[j] : 0.0;
    v.procs[j].comm_estimate = j < comm.size() ? comm[j] : 0.0;
  }
  return v;
}

/// The schedule a chromosome in the paper's notation (Fig. 2: batch
/// slots, −1 between processor queues) decodes to on `procs` processors.
FlatSchedule decoded(std::size_t procs, const ga::Chromosome& c) {
  const auto tasks = static_cast<std::size_t>(
      std::count_if(c.begin(), c.end(), [](ga::Gene g) { return g >= 0; }));
  FlatSchedule s;
  ScheduleCodec(tasks, procs).decode_into(c, s);
  return s;
}

TEST(Evaluator, PsiMatchesPaperFormula) {
  // Two procs at 10 and 30 Mflop/s with loads 100 and 0 MFLOPs; batch of
  // two tasks 200 + 200 MFLOPs.
  // ψ = (400 / 40) + (100/10 + 0/30) = 10 + 10 = 20.
  const ScheduleEvaluator eval({200.0, 200.0},
                               make_view({10.0, 30.0}, {100.0, 0.0}), false);
  EXPECT_DOUBLE_EQ(eval.psi(), 20.0);
}

TEST(Evaluator, CompletionTimeIncludesDeltaExecAndComm) {
  // P0: rate 10, load 100 (δ=10), comm 2 per dispatch.
  const ScheduleEvaluator eval({50.0, 100.0},
                               make_view({10.0}, {100.0}, {2.0}), true);
  // Queue both tasks: 10 + (5+2) + (10+2) = 29.
  EXPECT_DOUBLE_EQ(
      eval.completion_time(0, std::vector<std::size_t>{0, 1}), 29.0);
  EXPECT_DOUBLE_EQ(eval.completion_time(0, std::vector<std::size_t>{}), 10.0);
}

TEST(Evaluator, CommDisabledDropsGammaTerm) {
  const ScheduleEvaluator eval({50.0}, make_view({10.0}, {0.0}, {7.0}),
                               /*use_comm=*/false);
  EXPECT_DOUBLE_EQ(eval.completion_time(0, std::vector<std::size_t>{0}), 5.0);
  EXPECT_DOUBLE_EQ(eval.comm(0), 0.0);
}

TEST(Evaluator, PerfectBalanceHasZeroErrorAndFitnessOne) {
  // Two identical procs, two identical tasks, no comm: assigning one each
  // gives C_j = 10 = ψ exactly.
  const ScheduleEvaluator eval({100.0, 100.0}, make_view({10.0, 10.0}),
                               false);
  const BatchEvaluation balanced = eval.evaluate(decoded(2, {0, -1, 1}));
  EXPECT_DOUBLE_EQ(balanced.relative_error, 0.0);
  EXPECT_DOUBLE_EQ(balanced.fitness, 1.0);
}

TEST(Evaluator, ImbalanceIncreasesErrorAndLowersFitness) {
  const ScheduleEvaluator eval({100.0, 100.0}, make_view({10.0, 10.0}),
                               false);
  const BatchEvaluation balanced = eval.evaluate(decoded(2, {0, -1, 1}));
  const BatchEvaluation skewed = eval.evaluate(decoded(2, {0, 1, -1}));
  EXPECT_GT(skewed.relative_error, balanced.relative_error);
  EXPECT_LT(skewed.fitness, balanced.fitness);
}

TEST(Evaluator, FitnessAlwaysInUnitInterval) {
  const ScheduleEvaluator eval({5.0, 500.0, 50.0},
                               make_view({10.0, 20.0}, {0.0, 300.0},
                                         {1.0, 9.0}),
                               true);
  for (const ga::Chromosome& c :
       {ga::Chromosome{0, 1, 2, -1}, ga::Chromosome{-1, 0, 1, 2},
        ga::Chromosome{0, -1, 1, 2}, ga::Chromosome{2, 1, -1, 0}}) {
    const double f = eval.evaluate(decoded(2, c)).fitness;
    EXPECT_GE(f, 0.0);
    EXPECT_LE(f, 1.0);
  }
}

TEST(Evaluator, MakespanIsMaxCompletion) {
  const ScheduleEvaluator eval({100.0, 300.0},
                               make_view({10.0, 10.0}), false);
  // C = {10, 30}
  EXPECT_DOUBLE_EQ(eval.evaluate(decoded(2, {0, -1, 1})).makespan, 30.0);
}

TEST(Evaluator, CommAwareFitnessPrefersCheapLinks) {
  // Identical rates; link 0 costs 0, link 1 costs 20. Putting both tasks
  // on the cheap link beats splitting when comm dominates.
  const ScheduleEvaluator eval({10.0, 10.0},
                               make_view({10.0, 10.0}, {}, {0.0, 20.0}),
                               true);
  const FlatSchedule cheap_only = decoded(2, {0, 1, -1});
  const FlatSchedule split = decoded(2, {0, -1, 1});
  // split: C = {1, 21}, ψ = 0.1 ... cheap: C = {2, 0}.
  EXPECT_LT(eval.evaluate(cheap_only).relative_error,
            eval.evaluate(split).relative_error);
}

TEST(Evaluator, RejectsInvalidInputs) {
  EXPECT_THROW(ScheduleEvaluator({10.0}, sim::SystemView{}, false),
               std::invalid_argument);
  EXPECT_THROW(ScheduleEvaluator({10.0}, make_view({0.0}), false),
               std::invalid_argument);
  EXPECT_THROW(ScheduleEvaluator({0.0}, make_view({10.0}), false),
               std::invalid_argument);
  EXPECT_THROW(ScheduleEvaluator({-5.0}, make_view({10.0}), false),
               std::invalid_argument);
}

TEST(ScheduleProblem, AdapterMatchesEvaluatorThroughCodec) {
  const ScheduleCodec codec(3, 2);
  const ScheduleEvaluator eval({10.0, 20.0, 30.0},
                               make_view({10.0, 10.0}), false);
  const ScheduleProblem problem(codec, eval);
  const FlatSchedule s = decoded(2, {0, 2, -1, 1});
  const ga::Chromosome c = codec.encode(s);
  EXPECT_EQ(problem.fitness(c), eval.evaluate(s).fitness);
  EXPECT_EQ(problem.objective(c), eval.evaluate(s).makespan);
}

TEST(Evaluator, HeterogeneousRatesFavourFastProcessor) {
  // One 400-MFLOP task: the 40 Mflop/s processor finishes in 10 s, the
  // 10 Mflop/s one in 40 s; schedules using the fast one have lower
  // makespan.
  const ScheduleEvaluator eval({400.0}, make_view({10.0, 40.0}), false);
  EXPECT_DOUBLE_EQ(eval.evaluate(decoded(2, {-1, 0})).makespan, 10.0);
  EXPECT_DOUBLE_EQ(eval.evaluate(decoded(2, {0, -1})).makespan, 40.0);
}

}  // namespace
}  // namespace gasched::core
