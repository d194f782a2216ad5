// Equivalence tests for the flat evaluation core: decode into a
// FlatSchedule and the span-based evaluator overloads must be
// bit-identical to the legacy ProcQueues path across randomized batches —
// the contract that keeps every golden value and figure CSV byte-stable
// across the zero-allocation refactor.

#include <gtest/gtest.h>

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

TEST(FlatEval, DecodeIntoMatchesLegacyDecodeRandomized) {
  util::Rng rng(101);
  FlatSchedule flat;
  for (int round = 0; round < 50; ++round) {
    const std::size_t tasks = 1 + rng.index(60);
    const std::size_t procs = 1 + rng.index(12);
    const ScheduleCodec codec(tasks, procs);
    const ga::Chromosome c = random_chromosome(codec, rng);

    const ProcQueues legacy = codec.decode(c);
    codec.decode_into(c, flat);  // reused across rounds on purpose
    ASSERT_EQ(flat.num_procs(), procs);
    ASSERT_EQ(flat.num_slots(), tasks);
    EXPECT_EQ(flat.to_queues(), legacy);
  }
}

TEST(FlatEval, EvaluatorOverloadsBitIdenticalToProcQueuesPath) {
  util::Rng rng(202);
  FlatSchedule flat;
  for (int round = 0; round < 50; ++round) {
    const std::size_t tasks = 1 + rng.index(40);
    const std::size_t procs = 1 + rng.index(10);
    const ScheduleCodec codec(tasks, procs);
    const ScheduleEvaluator eval(random_sizes(tasks, rng),
                                 random_view(procs, rng),
                                 /*use_comm=*/rng.bernoulli(0.5));
    const ga::Chromosome c = random_chromosome(codec, rng);
    const ProcQueues legacy = codec.decode(c);
    codec.decode_into(c, flat);

    for (std::size_t j = 0; j < procs; ++j) {
      EXPECT_EQ(eval.completion_time(j, flat.queue(j)),
                eval.completion_time(j, legacy[j]));
    }
    EXPECT_EQ(eval.makespan(flat), eval.makespan(legacy));
    EXPECT_EQ(eval.relative_error(flat), eval.relative_error(legacy));
    EXPECT_EQ(eval.fitness(flat), eval.fitness(legacy));

    const BatchEvaluation combined = eval.evaluate(flat);
    EXPECT_EQ(combined.fitness, eval.fitness(legacy));
    EXPECT_EQ(combined.makespan, eval.makespan(legacy));
    EXPECT_EQ(combined.relative_error, eval.relative_error(legacy));
  }
}

TEST(FlatEval, ScheduleProblemEvaluateMatchesLegacyAdapters) {
  util::Rng rng(303);
  const std::size_t tasks = 30, procs = 6;
  const ScheduleCodec codec(tasks, procs);
  const ScheduleEvaluator eval(random_sizes(tasks, rng),
                               random_view(procs, rng), true);
  const ScheduleProblem problem(codec, eval);
  const auto ws = problem.make_workspace();
  ASSERT_NE(ws, nullptr);
  for (int round = 0; round < 20; ++round) {
    const ga::Chromosome c = random_chromosome(codec, rng);
    const auto e = problem.evaluate(c, ws.get());
    EXPECT_EQ(e.fitness, problem.fitness(c));
    EXPECT_EQ(e.objective, problem.objective(c));
    // Null workspace falls back to a throwaway one — same values.
    const auto e0 = problem.evaluate(c, nullptr);
    EXPECT_EQ(e0.fitness, e.fitness);
    EXPECT_EQ(e0.objective, e.objective);
  }
}

TEST(FlatEval, EncodeFlatMatchesEncodeQueues) {
  util::Rng rng(404);
  FlatSchedule flat;
  for (int round = 0; round < 20; ++round) {
    const std::size_t tasks = 1 + rng.index(30);
    const std::size_t procs = 1 + rng.index(8);
    const ScheduleCodec codec(tasks, procs);
    const ga::Chromosome c = random_chromosome(codec, rng);
    const ProcQueues q = codec.decode(c);
    codec.decode_into(c, flat);
    EXPECT_EQ(codec.encode(flat), codec.encode(q));
  }
}

TEST(FlatEval, AssignRoundTripsAndGroupedMatchesLoadTracker) {
  util::Rng rng(505);
  const std::size_t tasks = 25, procs = 5;
  const ScheduleEvaluator eval(random_sizes(tasks, rng),
                               random_view(procs, rng), true);
  FlatSchedule flat;
  list_schedule_flat(eval, 0.5, rng, flat);

  // assign()/to_queues() round trip.
  FlatSchedule copy;
  copy.assign(flat.to_queues());
  EXPECT_EQ(copy, flat);

  // assign_grouped reproduces LoadTracker::to_queues (ascending slots).
  const meta::LoadTracker tracker(eval, flat);
  FlatSchedule grouped;
  grouped.assign_grouped(tracker.assignment(), procs);
  EXPECT_EQ(grouped.to_queues(), tracker.to_queues());

  // export_schedule is the same thing without the adapter.
  FlatSchedule exported;
  tracker.export_schedule(exported);
  EXPECT_EQ(exported, grouped);
}

TEST(FlatEval, ListScheduleFlatMatchesLegacyListSchedule) {
  util::Rng rng(606);
  const std::size_t tasks = 40, procs = 7;
  const ScheduleEvaluator eval(random_sizes(tasks, rng),
                               random_view(procs, rng), true);
  for (const double frac : {0.0, 0.5, 1.0}) {
    util::Rng ra(77), rb(77);
    FlatSchedule flat;
    list_schedule_flat(eval, frac, ra, flat);
    const ProcQueues legacy = list_schedule(eval, frac, rb);
    EXPECT_EQ(flat.to_queues(), legacy);
    // Identical RNG consumption: the streams agree afterwards.
    EXPECT_EQ(ra.next_u64(), rb.next_u64());
  }
}

TEST(FlatEval, RebalanceWithWorkspaceMatchesConvenienceOverload) {
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
    const bool ka = rebalance_once(a, codec, eval, ra, 5, ws);
    const bool kb = rebalance_once(b, codec, eval, rb, 5);
    EXPECT_EQ(ka, kb);
    EXPECT_EQ(a, b);
  }
}

TEST(FlatEval, LoadTrackerFlatConstructorMatchesQueueConstructor) {
  util::Rng rng(808);
  const std::size_t tasks = 18, procs = 4;
  const ScheduleEvaluator eval(random_sizes(tasks, rng),
                               random_view(procs, rng), true);
  FlatSchedule flat;
  list_schedule_flat(eval, 0.3, rng, flat);
  const meta::LoadTracker from_flat(eval, flat);
  const meta::LoadTracker from_queues(eval, flat.to_queues());
  for (std::size_t j = 0; j < procs; ++j) {
    EXPECT_EQ(from_flat.completion(j), from_queues.completion(j));
  }
  for (std::size_t s = 0; s < tasks; ++s) {
    EXPECT_EQ(from_flat.proc_of(s), from_queues.proc_of(s));
  }
}

TEST(FlatEval, LoadMatchesEvaluateAndCachesQueueState) {
  util::Rng rng(909);
  FlatSchedule flat;
  QueueLoads loads;  // reused across rounds on purpose (resize contract)
  for (int round = 0; round < 50; ++round) {
    const std::size_t tasks = 1 + rng.index(40);
    const std::size_t procs = 1 + rng.index(10);
    const ScheduleCodec codec(tasks, procs);
    const ScheduleEvaluator eval(random_sizes(tasks, rng),
                                 random_view(procs, rng), rng.bernoulli(0.5));
    codec.decode_into(random_chromosome(codec, rng), flat);

    const BatchEvaluation full = eval.evaluate(flat);
    const BatchEvaluation cached = eval.load(flat, loads);
    EXPECT_EQ(cached.fitness, full.fitness);
    EXPECT_EQ(cached.makespan, full.makespan);
    EXPECT_EQ(cached.relative_error, full.relative_error);
    EXPECT_EQ(loads.eval.fitness, full.fitness);
    EXPECT_EQ(loads.max_completion, full.makespan);

    // Per-queue cache entries are the canonical completion times, and the
    // cached argmax is the first argmax (ties to the smallest index).
    ASSERT_EQ(loads.completion.size(), procs);
    std::size_t first_argmax = 0;
    double heavy_time = -1.0;
    for (std::size_t j = 0; j < procs; ++j) {
      const double cj = eval.completion_time(j, flat.queue(j));
      EXPECT_EQ(loads.completion[j], cj);
      const double dev = eval.psi() - cj;
      EXPECT_EQ(loads.dev_sq[j], dev * dev);
      if (cj > heavy_time) {
        heavy_time = cj;
        first_argmax = j;
      }
    }
    EXPECT_EQ(loads.heaviest, first_argmax);
  }
}

TEST(FlatEval, LoadDecodedMatchesDecodeIntoPlusLoad) {
  util::Rng rng(1010);
  FlatSchedule fused, staged;
  QueueLoads fused_loads, staged_loads;
  for (int round = 0; round < 50; ++round) {
    const std::size_t tasks = 1 + rng.index(40);
    const std::size_t procs = 1 + rng.index(10);
    const ScheduleCodec codec(tasks, procs);
    const ScheduleEvaluator eval(random_sizes(tasks, rng),
                                 random_view(procs, rng), rng.bernoulli(0.5));
    const ga::Chromosome c = random_chromosome(codec, rng);

    const BatchEvaluation a = eval.load_decoded(codec, c, fused, fused_loads);
    codec.decode_into(c, staged);
    const BatchEvaluation b = eval.load(staged, staged_loads);

    EXPECT_EQ(fused, staged);
    EXPECT_EQ(a.fitness, b.fitness);
    EXPECT_EQ(a.makespan, b.makespan);
    EXPECT_EQ(a.relative_error, b.relative_error);
    EXPECT_EQ(fused_loads.completion, staged_loads.completion);
    EXPECT_EQ(fused_loads.dev_sq, staged_loads.dev_sq);
    EXPECT_EQ(fused_loads.sum_sq, staged_loads.sum_sq);
    EXPECT_EQ(fused_loads.heaviest, staged_loads.heaviest);
  }
}

// The identity all goldens and figure CSVs rest on: the fused decode +
// load, a fresh load, and the stateless single-pass evaluate agree bit
// for bit, with reused and with fresh scratch.
TEST(FlatEval, PricingPathsStayBitIdenticalToStatelessEvaluate) {
  util::Rng rng(33);
  FlatSchedule flat;
  QueueLoads loads;
  for (int round = 0; round < 80; ++round) {
    const std::size_t tasks = 1 + rng.index(50);
    const std::size_t procs = 1 + rng.index(10);
    const ScheduleCodec codec(tasks, procs);
    const ScheduleEvaluator eval(random_sizes(tasks, rng),
                                 random_view(procs, rng), rng.bernoulli(0.5));
    const ga::Chromosome c = random_chromosome(codec, rng);

    const BatchEvaluation fused = eval.load_decoded(codec, c, flat, loads);
    const BatchEvaluation stateless = eval.evaluate(flat);
    ASSERT_EQ(fused.fitness, stateless.fitness);
    ASSERT_EQ(fused.makespan, stateless.makespan);
    ASSERT_EQ(fused.relative_error, stateless.relative_error);

    QueueLoads reloaded;
    const BatchEvaluation loaded = eval.load(flat, reloaded);
    ASSERT_EQ(loaded.fitness, stateless.fitness);
    ASSERT_EQ(loaded.makespan, stateless.makespan);
    ASSERT_EQ(loaded.relative_error, stateless.relative_error);
  }
}

TEST(FlatEval, EvaluateSwapBitIdenticalToFullRepriceOverMoveSequences) {
  util::Rng rng(1111);
  FlatSchedule flat;
  QueueLoads delta_loads, fresh_loads;
  for (int round = 0; round < 30; ++round) {
    const std::size_t tasks = 2 + rng.index(40);
    const std::size_t procs = 2 + rng.index(9);
    const ScheduleCodec codec(tasks, procs);
    const ScheduleEvaluator eval(random_sizes(tasks, rng),
                                 random_view(procs, rng), rng.bernoulli(0.5));
    codec.decode_into(random_chromosome(codec, rng), flat);
    eval.load(flat, delta_loads);

    // A chain of random cross-queue swaps, each delta-priced against the
    // cache carried through every previous step: the cache must match a
    // from-scratch pricing bit for bit after every single edit.
    for (int step = 0; step < 25; ++step) {
      const std::size_t qa = rng.index(procs);
      std::size_t qb = rng.index(procs - 1);
      if (qb >= qa) ++qb;
      const auto queue_a = flat.queue(qa);
      const auto queue_b = flat.queue(qb);
      if (queue_a.empty() || queue_b.empty()) continue;
      std::swap(queue_a[rng.index(queue_a.size())],
                queue_b[rng.index(queue_b.size())]);

      const BatchEvaluation delta = eval.evaluate_swap(flat, delta_loads, qa, qb);
      const BatchEvaluation full = eval.load(flat, fresh_loads);
      ASSERT_EQ(delta.fitness, full.fitness);
      ASSERT_EQ(delta.makespan, full.makespan);
      ASSERT_EQ(delta.relative_error, full.relative_error);
      ASSERT_EQ(delta_loads.completion, fresh_loads.completion);
      ASSERT_EQ(delta_loads.dev_sq, fresh_loads.dev_sq);
      ASSERT_EQ(delta_loads.sum_sq, fresh_loads.sum_sq);
      ASSERT_EQ(delta_loads.max_completion, fresh_loads.max_completion);
      ASSERT_EQ(delta_loads.heaviest, fresh_loads.heaviest);
    }
  }
}

TEST(FlatEval, EvaluateMoveBitIdenticalToFullReprice) {
  util::Rng rng(1212);
  FlatSchedule flat;
  QueueLoads delta_loads, fresh_loads;
  for (int round = 0; round < 30; ++round) {
    const std::size_t tasks = 1 + rng.index(30);
    const std::size_t procs = 2 + rng.index(8);
    const ScheduleCodec codec(tasks, procs);
    const ScheduleEvaluator eval(random_sizes(tasks, rng),
                                 random_view(procs, rng), rng.bernoulli(0.5));
    ProcQueues queues = codec.decode(random_chromosome(codec, rng));
    flat.assign(queues);
    eval.load(flat, delta_loads);

    for (int step = 0; step < 15; ++step) {
      const std::size_t from = rng.index(procs);
      std::size_t to = rng.index(procs - 1);
      if (to >= from) ++to;
      if (queues[from].empty()) continue;
      // Moves resize queues, so the schedule is rebuilt; the load cache is
      // NOT — evaluate_move must bring it current from the two queue ids.
      const std::size_t pos = rng.index(queues[from].size());
      queues[to].push_back(queues[from][pos]);
      queues[from].erase(queues[from].begin() +
                         static_cast<std::ptrdiff_t>(pos));
      flat.assign(queues);

      const BatchEvaluation delta = eval.evaluate_move(flat, delta_loads, from, to);
      const BatchEvaluation full = eval.load(flat, fresh_loads);
      ASSERT_EQ(delta.fitness, full.fitness);
      ASSERT_EQ(delta.makespan, full.makespan);
      ASSERT_EQ(delta.relative_error, full.relative_error);
      ASSERT_EQ(delta_loads.completion, fresh_loads.completion);
      ASSERT_EQ(delta_loads.sum_sq, fresh_loads.sum_sq);
      ASSERT_EQ(delta_loads.heaviest, fresh_loads.heaviest);
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
