// Tests for the decoded schedule form and its two pricings: decode_into
// splits a chromosome at its delimiter positions, encode inverts it, the
// stateless evaluate() reduces completion_time() in ascending j, and the
// workspace's pricing memo agrees with evaluate() bit for bit across
// randomized batches — the contract that keeps every golden value and
// figure CSV byte-stable.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <vector>

#include "core/encoding.hpp"
#include "core/fitness.hpp"
#include "core/init.hpp"
#include "core/rebalance.hpp"
#include "meta/assignment.hpp"
#include "util/rng.hpp"

namespace gasched::core {
namespace {

sim::SystemView random_view(std::size_t procs, util::Rng& rng) {
  sim::SystemView v;
  v.procs.resize(procs);
  for (std::size_t j = 0; j < procs; ++j) {
    v.procs[j].id = static_cast<sim::ProcId>(j);
    v.procs[j].rate = rng.uniform(5.0, 120.0);
    v.procs[j].pending_mflops = rng.bernoulli(0.5) ? rng.uniform(0.0, 500.0) : 0.0;
    v.procs[j].comm_estimate = rng.uniform(0.1, 30.0);
    v.procs[j].comm_observations = 1;
  }
  return v;
}

std::vector<double> random_sizes(std::size_t tasks, util::Rng& rng) {
  std::vector<double> s(tasks);
  for (auto& v : s) v = rng.uniform(5.0, 1500.0);
  return s;
}

/// A random valid chromosome: shuffled permutation of the symbol set.
ga::Chromosome random_chromosome(const ScheduleCodec& codec, util::Rng& rng) {
  ga::Chromosome c;
  c.reserve(codec.chromosome_length());
  for (std::size_t s = 0; s < codec.num_tasks(); ++s) {
    c.push_back(ScheduleCodec::task_gene(s));
  }
  for (std::size_t k = 0; k + 1 < codec.num_procs(); ++k) {
    c.push_back(ScheduleCodec::delimiter_gene(k));
  }
  rng.shuffle(c);
  return c;
}

TEST(FlatEval, DecodeIntoSplitsAtDelimiterPositionsRandomized) {
  util::Rng rng(101);
  FlatSchedule flat;
  for (int round = 0; round < 50; ++round) {
    const std::size_t tasks = 1 + rng.index(60);
    const std::size_t procs = 1 + rng.index(12);
    const ScheduleCodec codec(tasks, procs);
    const ga::Chromosome c = random_chromosome(codec, rng);

    codec.decode_into(c, flat);  // reused across rounds on purpose
    ASSERT_EQ(flat.num_procs(), procs);
    ASSERT_EQ(flat.num_slots(), tasks);
    // Walk c: the k-th delimiter position ends queue k, and every task
    // gene lands next in the current queue.
    std::size_t j = 0, i = 0;
    for (const ga::Gene g : c) {
      if (ScheduleCodec::is_delimiter(g)) {
        ASSERT_EQ(flat.queue(j).size(), i);
        ++j;
        i = 0;
      } else {
        ASSERT_LT(i, flat.queue(j).size());
        EXPECT_EQ(flat.queue(j)[i++], ScheduleCodec::task_slot(g));
      }
    }
    EXPECT_EQ(flat.queue(j).size(), i);
  }
}

TEST(FlatEval, EvaluateReducesCompletionTimesInAscendingJ) {
  util::Rng rng(202);
  FlatSchedule flat;
  for (int round = 0; round < 50; ++round) {
    const std::size_t tasks = 1 + rng.index(40);
    const std::size_t procs = 1 + rng.index(10);
    const ScheduleCodec codec(tasks, procs);
    const ScheduleEvaluator eval(random_sizes(tasks, rng),
                                 random_view(procs, rng),
                                 /*use_comm=*/rng.bernoulli(0.5));
    codec.decode_into(random_chromosome(codec, rng), flat);

    double makespan = 0.0;
    double sum_sq = 0.0;
    for (std::size_t j = 0; j < procs; ++j) {
      const double cj = eval.completion_time(j, flat.queue(j));
      makespan = std::max(makespan, cj);
      const double dev = eval.psi() - cj;
      sum_sq += dev * dev;
    }
    const double error = std::sqrt(sum_sq);
    const BatchEvaluation e = eval.evaluate(flat);
    EXPECT_EQ(e.makespan, makespan);
    EXPECT_EQ(e.relative_error, error);
    EXPECT_EQ(e.fitness, error <= 1.0 ? 1.0 : 1.0 / error);
  }
}

TEST(FlatEval, ScheduleProblemEvaluateMatchesFitnessAndObjective) {
  util::Rng rng(303);
  const std::size_t tasks = 30, procs = 6;
  const ScheduleCodec codec(tasks, procs);
  const ScheduleEvaluator eval(random_sizes(tasks, rng),
                               random_view(procs, rng), true);
  const ScheduleProblem problem(codec, eval);
  const auto ws = problem.make_workspace();
  ASSERT_NE(ws, nullptr);
  FlatSchedule flat;
  for (int round = 0; round < 20; ++round) {
    const ga::Chromosome c = random_chromosome(codec, rng);
    const auto e = problem.evaluate(c, ws.get());
    EXPECT_EQ(e.fitness, problem.fitness(c));
    EXPECT_EQ(e.objective, problem.objective(c));
    codec.decode_into(c, flat);
    EXPECT_EQ(e.fitness, eval.evaluate(flat).fitness);
    EXPECT_EQ(e.objective, eval.evaluate(flat).makespan);
    // Null workspace falls back to a local decode — same values.
    const auto e0 = problem.evaluate(c, nullptr);
    EXPECT_EQ(e0.fitness, e.fitness);
    EXPECT_EQ(e0.objective, e.objective);
  }
}

TEST(FlatEval, EncodeInvertsDecodeIntoUpToDelimiterOrder) {
  util::Rng rng(404);
  FlatSchedule flat, again;
  for (int round = 0; round < 20; ++round) {
    const std::size_t tasks = 1 + rng.index(30);
    const std::size_t procs = 1 + rng.index(8);
    const ScheduleCodec codec(tasks, procs);
    const ga::Chromosome c = random_chromosome(codec, rng);
    codec.decode_into(c, flat);
    const ga::Chromosome e = codec.encode(flat);
    ASSERT_TRUE(codec.valid(e));
    // Same genes at the same positions, delimiters renumbered in order.
    ASSERT_EQ(e.size(), c.size());
    std::size_t k = 0;
    for (std::size_t i = 0; i < c.size(); ++i) {
      if (ScheduleCodec::is_delimiter(c[i])) {
        EXPECT_EQ(e[i], ScheduleCodec::delimiter_gene(k++));
      } else {
        EXPECT_EQ(e[i], c[i]);
      }
    }
    codec.decode_into(e, again);
    EXPECT_EQ(again, flat);
  }
}

TEST(FlatEval, AssignGroupedMatchesLoadTrackerExport) {
  util::Rng rng(505);
  const std::size_t tasks = 25, procs = 5;
  const ScheduleEvaluator eval(random_sizes(tasks, rng),
                               random_view(procs, rng), true);
  FlatSchedule flat;
  list_schedule(eval, 0.5, rng, flat);

  // assign_grouped keeps each slot on its processor, slots ascending.
  const meta::LoadTracker tracker(eval, flat);
  FlatSchedule grouped;
  grouped.assign_grouped(tracker.assignment(), procs);
  ASSERT_EQ(grouped.num_slots(), tasks);
  for (std::size_t j = 0; j < procs; ++j) {
    const auto q = grouped.queue(j);
    EXPECT_TRUE(std::is_sorted(q.begin(), q.end()));
    EXPECT_EQ(q.size(), flat.queue(j).size());
    for (const std::size_t slot : q) EXPECT_EQ(tracker.proc_of(slot), j);
  }

  // export_schedule is the same thing.
  FlatSchedule exported;
  tracker.export_schedule(exported);
  EXPECT_EQ(exported, grouped);
}

TEST(FlatEval, AssignOrderedKeepsTheGivenOrderWithinEachQueue) {
  util::Rng rng(515);
  FlatSchedule s;  // reused across rounds on purpose
  for (int round = 0; round < 30; ++round) {
    const std::size_t tasks = rng.index(30);
    const std::size_t procs = 1 + rng.index(8);
    std::vector<std::size_t> slot_proc(tasks), order(tasks);
    for (std::size_t slot = 0; slot < tasks; ++slot) {
      slot_proc[slot] = rng.index(procs);
      order[slot] = slot;
    }
    rng.shuffle(order);
    s.assign_ordered(order, slot_proc, procs);
    ASSERT_EQ(s.num_procs(), procs);
    ASSERT_EQ(s.num_slots(), tasks);
    // Queue j is the subsequence of `order` placed on j.
    for (std::size_t j = 0; j < procs; ++j) {
      std::vector<std::size_t> want;
      for (const std::size_t slot : order) {
        if (slot_proc[slot] == j) want.push_back(slot);
      }
      const auto q = s.queue(j);
      EXPECT_EQ(std::vector<std::size_t>(q.begin(), q.end()), want);
    }
  }
}

TEST(FlatEval, ListScheduleIntoReusedOutputMatchesFreshOutput) {
  // list_schedule overwrites whatever `out` held, and its RNG draws do
  // not depend on it.
  util::Rng rng(606);
  FlatSchedule reused;
  for (int round = 0; round < 12; ++round) {
    const std::size_t tasks = rng.index(40);
    const std::size_t procs = 1 + rng.index(9);
    const ScheduleEvaluator eval(random_sizes(tasks, rng),
                                 random_view(procs, rng), true);
    const double frac = round % 3 == 0 ? 0.0 : round % 3 == 1 ? 0.5 : 1.0;
    util::Rng ra(77 + round), rb(77 + round);
    FlatSchedule fresh;
    list_schedule(eval, frac, ra, reused);
    list_schedule(eval, frac, rb, fresh);
    EXPECT_EQ(reused, fresh);
    EXPECT_EQ(ra.next_u64(), rb.next_u64());
  }
}

TEST(FlatEval, LoadTrackerStartsFromTheStatelessCompletionTimes) {
  // LoadTracker sums each queue in order from δ_j, as completion_time()
  // does: its starting loads are the same doubles.
  util::Rng rng(808);
  FlatSchedule flat;
  for (int round = 0; round < 30; ++round) {
    const std::size_t tasks = 1 + rng.index(40);
    const std::size_t procs = 1 + rng.index(8);
    const ScheduleCodec codec(tasks, procs);
    const ScheduleEvaluator eval(random_sizes(tasks, rng),
                                 random_view(procs, rng), rng.bernoulli(0.5));
    codec.decode_into(random_chromosome(codec, rng), flat);
    const meta::LoadTracker tracker(eval, flat);
    for (std::size_t j = 0; j < procs; ++j) {
      EXPECT_EQ(tracker.completion(j), eval.completion_time(j, flat.queue(j)));
      for (const std::size_t slot : flat.queue(j)) {
        EXPECT_EQ(tracker.proc_of(slot), j);
      }
    }
    EXPECT_EQ(tracker.makespan(), eval.evaluate(flat).makespan);
  }
}

TEST(FlatEval, RebalanceWithReusedWorkspaceMatchesFreshWorkspaces) {
  // What the memo holds from earlier passes changes no pass's result.
  util::Rng rng(707);
  const std::size_t tasks = 20, procs = 4;
  const ScheduleCodec codec(tasks, procs);
  const ScheduleEvaluator eval(random_sizes(tasks, rng),
                               random_view(procs, rng), true);
  EvalWorkspace ws;
  for (int round = 0; round < 20; ++round) {
    ga::Chromosome a = random_chromosome(codec, rng);
    ga::Chromosome b = a;
    util::Rng ra(900 + round), rb(900 + round);
    EvalWorkspace fresh;
    const bool ka = rebalance_once(a, codec, eval, ra, 5, ws);
    const bool kb = rebalance_once(b, codec, eval, rb, 5, fresh);
    EXPECT_EQ(ka, kb);
    EXPECT_EQ(a, b);
  }
}

// The identity all goldens and figure CSVs rest on: the memo's pricing
// (a fused decode + pricing on a miss, the stored doubles on a hit) and
// the stateless single-pass evaluate agree bit for bit, with reused and
// with fresh scratch.
TEST(FlatEval, PricingPathsStayBitIdenticalToStatelessEvaluate) {
  util::Rng rng(33);
  FlatSchedule flat;
  EvalWorkspace reused;
  for (int round = 0; round < 80; ++round) {
    const std::size_t tasks = 1 + rng.index(50);
    const std::size_t procs = 1 + rng.index(10);
    const ScheduleCodec codec(tasks, procs);
    const ScheduleEvaluator eval(random_sizes(tasks, rng),
                                 random_view(procs, rng), rng.bernoulli(0.5));
    const ga::Chromosome c = random_chromosome(codec, rng);
    codec.decode_into(c, flat);
    const BatchEvaluation stateless = eval.evaluate(flat);

    EvalWorkspace fresh;
    for (EvalWorkspace* ws : {&reused, &fresh, &reused}) {
      const std::size_t e = eval.load_memo(c, *ws);
      const BatchEvaluation& memo = ws->memo.evaluation(e);
      ASSERT_EQ(memo.fitness, stateless.fitness);
      ASSERT_EQ(memo.makespan, stateless.makespan);
      ASSERT_EQ(memo.relative_error, stateless.relative_error);
      for (std::size_t j = 0; j < procs; ++j) {
        ASSERT_EQ(ws->memo.completions(e)[j],
                  eval.completion_time(j, flat.queue(j)));
      }
    }
  }
}

TEST(FlatEval, CostTableServesDefiningExpression) {
  util::Rng rng(1313);
  const std::size_t tasks = 20, procs = 6;
  const std::vector<double> sizes = random_sizes(tasks, rng);
  const sim::SystemView view = random_view(procs, rng);
  for (const bool use_comm : {false, true}) {
    const ScheduleEvaluator eval(sizes, view, use_comm);
    for (std::size_t j = 0; j < procs; ++j) {
      for (std::size_t s = 0; s < tasks; ++s) {
        // Exactly the double the defining expression produces — the table
        // removes the division, not a single bit.
        const double expected =
            sizes[s] / view.procs[j].rate + (use_comm ? eval.comm(j) : 0.0);
        EXPECT_EQ(eval.task_cost_on(s, j), expected);
      }
    }
  }
}

TEST(FlatEval, DecodeIntoRejectsTooManyDelimiters) {
  const ScheduleCodec codec(2, 2);
  FlatSchedule flat;
  // 2 tasks, 2 procs -> exactly one delimiter allowed.
  const ga::Chromosome bad{ScheduleCodec::task_gene(0),
                           ScheduleCodec::delimiter_gene(0),
                           ScheduleCodec::delimiter_gene(0),
                           ScheduleCodec::task_gene(1)};
  EXPECT_THROW(codec.decode_into(bad, flat), std::invalid_argument);
}

}  // namespace
}  // namespace gasched::core
