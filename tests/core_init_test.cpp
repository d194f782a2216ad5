// Tests for the list-scheduling initial population (paper §3.3).

#include "core/init.hpp"

#include <gtest/gtest.h>

#include "util/stats.hpp"

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
  }
  return v;
}

std::vector<double> uniform_sizes(std::size_t n, util::Rng& rng) {
  std::vector<double> s(n);
  for (auto& v : s) v = rng.uniform(10.0, 100.0);
  return s;
}

FlatSchedule list_scheduled(const ScheduleEvaluator& eval, double frac,
                            util::Rng& rng) {
  FlatSchedule s;
  list_schedule(eval, frac, rng, s);
  return s;
}

TEST(ListSchedule, CoversEveryTaskExactlyOnce) {
  util::Rng rng(1);
  const auto sizes = uniform_sizes(40, rng);
  const ScheduleEvaluator eval(sizes, make_view({10, 20, 30, 40}), false);
  for (double frac : {0.0, 0.3, 1.0}) {
    const FlatSchedule q = list_scheduled(eval, frac, rng);
    ASSERT_EQ(q.num_procs(), 4u);
    std::vector<int> seen(40, 0);
    for (std::size_t j = 0; j < q.num_procs(); ++j) {
      for (const auto slot : q.queue(j)) ++seen[slot];
    }
    for (const int s : seen) ASSERT_EQ(s, 1);
  }
}

TEST(ListSchedule, PureGreedyIsWellBalanced) {
  // With random_fraction = 0 (pure earliest-finish) the completion times
  // should be close to each other.
  util::Rng rng(2);
  const auto sizes = uniform_sizes(200, rng);
  const ScheduleEvaluator eval(sizes, make_view({10, 20, 30, 40}), false);
  const FlatSchedule q = list_scheduled(eval, 0.0, rng);
  std::vector<double> completions;
  for (std::size_t j = 0; j < 4; ++j) {
    completions.push_back(eval.completion_time(j, q.queue(j)));
  }
  const auto s = util::summarize(completions);
  EXPECT_LT((s.max - s.min) / s.mean, 0.25);
}

TEST(ListSchedule, GreedyBeatsFullyRandomOnAverage) {
  util::Rng rng(3);
  const auto sizes = uniform_sizes(100, rng);
  const ScheduleEvaluator eval(sizes, make_view({10, 15, 50, 80}), false);
  double greedy_ms = 0.0, random_ms = 0.0;
  for (int trial = 0; trial < 20; ++trial) {
    greedy_ms += eval.evaluate(list_scheduled(eval, 0.0, rng)).makespan;
    random_ms += eval.evaluate(list_scheduled(eval, 1.0, rng)).makespan;
  }
  EXPECT_LT(greedy_ms, random_ms);
}

TEST(ListSchedule, FullyRandomUsesAllProcessorsEventually) {
  util::Rng rng(4);
  const auto sizes = uniform_sizes(300, rng);
  const ScheduleEvaluator eval(sizes, make_view({10, 10, 10, 10, 10}),
                               false);
  const FlatSchedule q = list_scheduled(eval, 1.0, rng);
  for (std::size_t j = 0; j < q.num_procs(); ++j) {
    EXPECT_FALSE(q.queue(j).empty());
  }
}

TEST(ListSchedule, RespectsExistingLoad) {
  // Proc 0 is pre-loaded; greedy must put the single task on proc 1.
  sim::SystemView v = make_view({10.0, 10.0});
  v.procs[0].pending_mflops = 10000.0;
  const ScheduleEvaluator eval({50.0}, v, false);
  util::Rng rng(5);
  const FlatSchedule q = list_scheduled(eval, 0.0, rng);
  EXPECT_TRUE(q.queue(0).empty());
  ASSERT_EQ(q.queue(1).size(), 1u);
}

TEST(ListSchedule, CommEstimatesSteerGreedyPlacement) {
  // Equal rates but link 0 is expensive: greedy with comm-aware evaluator
  // must prefer proc 1 for a single task.
  const ScheduleEvaluator eval({50.0},
                               make_view({10.0, 10.0}, {100.0, 0.0}), true);
  util::Rng rng(6);
  const FlatSchedule q = list_scheduled(eval, 0.0, rng);
  EXPECT_TRUE(q.queue(0).empty());
  EXPECT_EQ(q.queue(1).size(), 1u);
}

TEST(InitialPopulation, CorrectCountAndAllValid) {
  util::Rng rng(7);
  const auto sizes = uniform_sizes(30, rng);
  const ScheduleCodec codec(30, 5);
  const ScheduleEvaluator eval(sizes, make_view({10, 20, 30, 40, 50}),
                               false);
  const auto pop = initial_population(codec, eval, 20, 0.5, rng);
  ASSERT_EQ(pop.size(), 20u);
  for (const auto& c : pop) ASSERT_TRUE(codec.valid(c));
}

TEST(InitialPopulation, IndividualsAreDiverse) {
  util::Rng rng(8);
  const auto sizes = uniform_sizes(30, rng);
  const ScheduleCodec codec(30, 5);
  const ScheduleEvaluator eval(sizes, make_view({10, 20, 30, 40, 50}),
                               false);
  const auto pop = initial_population(codec, eval, 10, 0.5, rng);
  int distinct_pairs = 0;
  for (std::size_t i = 0; i < pop.size(); ++i) {
    for (std::size_t j = i + 1; j < pop.size(); ++j) {
      if (pop[i] != pop[j]) ++distinct_pairs;
    }
  }
  EXPECT_GT(distinct_pairs, 30);  // most pairs differ
}

TEST(ListSchedule, EmptyBatchYieldsEmptyQueues) {
  const ScheduleEvaluator eval({}, make_view({10.0, 20.0}), false);
  util::Rng rng(9);
  const FlatSchedule q = list_scheduled(eval, 0.5, rng);
  ASSERT_EQ(q.num_procs(), 2u);
  EXPECT_TRUE(q.queue(0).empty());
  EXPECT_TRUE(q.queue(1).empty());
}

}  // namespace
}  // namespace gasched::core
