// Accuracy and contract tests for the one way schedules are priced
// (docs/evaluation.md): every C_j is δ_j plus its queue's cost-table
// entries summed left to right, the metrics reduce in ascending j, and
// nothing outside the evaluator's inputs — not the numeric-mode stub
// argument — changes a single bit. The sums are checked against
// long-double references, and the GA's batched evaluation hook against
// per-chromosome pricing.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <vector>

#include "core/encoding.hpp"
#include "core/fitness.hpp"
#include "core/numeric.hpp"
#include "ga/crossover.hpp"
#include "ga/engine.hpp"
#include "ga/mutation.hpp"
#include "ga/selection.hpp"
#include "util/rng.hpp"

namespace gasched::core {
namespace {

sim::SystemView random_view(std::size_t procs, double comm_hi,
                            util::Rng& rng) {
  sim::SystemView v;
  v.procs.resize(procs);
  for (std::size_t j = 0; j < procs; ++j) {
    v.procs[j].id = static_cast<sim::ProcId>(j);
    v.procs[j].rate = rng.uniform(5.0, 120.0);
    v.procs[j].pending_mflops =
        rng.bernoulli(0.5) ? rng.uniform(0.0, 500.0) : 0.0;
    v.procs[j].comm_estimate = rng.uniform(0.0, comm_hi);
    v.procs[j].comm_observations = 1;
  }
  return v;
}

std::vector<double> random_sizes(std::size_t tasks, util::Rng& rng) {
  std::vector<double> s(tasks);
  for (auto& v : s) v = rng.uniform(5.0, 1500.0);
  return s;
}

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

/// |got − ref| relative to max(|ref|, scale).
double deviation(double got, long double ref, double scale) {
  const long double denom = std::max(std::fabs(ref),
                                     static_cast<long double>(scale));
  return static_cast<double>(std::fabs(got - ref) / denom);
}

/// C_j of `queue` in long double, from the evaluator's own inputs.
long double reference_completion(const ScheduleEvaluator& eval,
                                 std::size_t j,
                                 const std::vector<std::size_t>& queue) {
  long double c = eval.delta(j);
  for (const std::size_t slot : queue) {
    c += static_cast<long double>(eval.task_size(slot)) / eval.rate(j) +
         eval.comm(j);
  }
  return c;
}

void expect_same(const BatchEvaluation& a, const BatchEvaluation& b) {
  EXPECT_EQ(a.fitness, b.fitness);
  EXPECT_EQ(a.makespan, b.makespan);
  EXPECT_EQ(a.relative_error, b.relative_error);
}

TEST(ExactPricing, PsiMatchesLongDoubleReference) {
  util::Rng rng(51);
  for (int round = 0; round < 40; ++round) {
    const std::size_t tasks = 1 + rng.index(300);
    const std::size_t procs = 1 + rng.index(40);
    const std::vector<double> sizes = random_sizes(tasks, rng);
    const sim::SystemView view = random_view(procs, 20.0, rng);
    const ScheduleEvaluator eval(sizes, view, true);

    // The defining expression in its canonical order, bit for bit...
    double work = 0.0, rate = 0.0, drain = 0.0;
    long double ref_work = 0.0L, ref_rate = 0.0L, ref_drain = 0.0L;
    for (const double t : sizes) {
      work += t;
      ref_work += t;
    }
    for (const auto& p : view.procs) {
      rate += p.rate;
      drain += p.pending_mflops / p.rate;
      ref_rate += p.rate;
      ref_drain += static_cast<long double>(p.pending_mflops) / p.rate;
    }
    EXPECT_EQ(eval.psi(), work / rate + drain);
    // ...and within rounding of the real-valued ψ.
    EXPECT_LE(deviation(eval.psi(), ref_work / ref_rate + ref_drain, 1.0),
              1e-13);
  }
}

TEST(ExactPricing, CompletionTimeMatchesLongDoubleReference) {
  util::Rng rng(52);
  const std::size_t tasks = 1024, procs = 3;
  const ScheduleEvaluator eval(random_sizes(tasks, rng),
                               random_view(procs, 30.0, rng), true);
  for (const std::size_t n :
       {std::size_t{0}, std::size_t{1}, std::size_t{3}, std::size_t{4},
        std::size_t{7}, std::size_t{8}, std::size_t{9}, std::size_t{31},
        std::size_t{257}, std::size_t{1024}}) {
    std::vector<std::size_t> queue(n);
    for (auto& slot : queue) slot = rng.index(tasks);
    for (std::size_t j = 0; j < procs; ++j) {
      const double got = eval.completion_time(j, queue);
      EXPECT_LE(deviation(got, reference_completion(eval, j, queue), 1.0),
                1e-13)
          << "j=" << j << " n=" << n;
    }
  }
}

TEST(ExactPricing, CompletionTimeSumsQueueLeftToRight) {
  util::Rng rng(53);
  for (int round = 0; round < 30; ++round) {
    const std::size_t tasks = 1 + rng.index(200);
    const std::size_t procs = 1 + rng.index(8);
    const ScheduleEvaluator eval(random_sizes(tasks, rng),
                                 random_view(procs, 30.0, rng),
                                 rng.bernoulli(0.5));
    std::vector<std::size_t> queue(rng.index(2 * tasks));
    for (auto& slot : queue) slot = rng.index(tasks);
    for (std::size_t j = 0; j < procs; ++j) {
      // δ_j first, then each slot's table entry in queue order: the one
      // summation order every golden and figure CSV was produced with.
      double c = eval.delta(j);
      for (const std::size_t slot : queue) c += eval.cost_row(j)[slot];
      EXPECT_EQ(eval.completion_time(j, queue), c) << "j=" << j;
    }
  }
}

TEST(ExactPricing, RelativeErrorMatchesLongDoubleReference) {
  util::Rng rng(54);
  FlatSchedule flat;
  for (int round = 0; round < 60; ++round) {
    const std::size_t tasks = 1 + rng.index(120);
    const std::size_t procs = 1 + rng.index(16);
    const ScheduleCodec codec(tasks, procs);
    const ScheduleEvaluator eval(random_sizes(tasks, rng),
                                 random_view(procs, 30.0, rng),
                                 rng.bernoulli(0.5));
    codec.decode_into(random_chromosome(codec, rng), flat);

    long double sum_sq = 0.0L;
    for (std::size_t j = 0; j < procs; ++j) {
      const auto q = flat.queue(j);
      const long double dev =
          static_cast<long double>(eval.psi()) -
          reference_completion(eval, j, {q.begin(), q.end()});
      sum_sq += dev * dev;
    }
    const BatchEvaluation e = eval.evaluate(flat);
    EXPECT_LE(deviation(e.relative_error, std::sqrt(sum_sq), eval.psi()),
              1e-12)
        << "round " << round;
    EXPECT_EQ(eval.relative_error(flat), e.relative_error);
  }
}

TEST(ExactPricing, ReductionsRunInAscendingJWithTheFirstArgmax) {
  util::Rng rng(55);
  FlatSchedule flat;
  QueueLoads loads;
  for (int round = 0; round < 60; ++round) {
    const std::size_t procs = 1 + rng.index(12);
    const std::size_t tasks = procs * (1 + rng.index(6));
    const ScheduleCodec codec(tasks, procs);
    // Every other round prices identical processors running equal-sized
    // tasks in equally long queues, so C_j ties and the argmax must
    // resolve to the smallest j.
    const bool ties = round % 2 == 0;
    sim::SystemView view = random_view(procs, 30.0, rng);
    std::vector<double> sizes = random_sizes(tasks, rng);
    if (ties) {
      for (auto& p : view.procs) p = view.procs[0];
      std::fill(sizes.begin(), sizes.end(), sizes[0]);
      ProcQueues queues(procs);
      for (std::size_t s = 0; s < tasks; ++s) queues[s % procs].push_back(s);
      flat.assign(queues);
    } else {
      codec.decode_into(random_chromosome(codec, rng), flat);
    }
    const ScheduleEvaluator eval(sizes, view, true);
    const BatchEvaluation e = eval.load(flat, loads);

    double max = 0.0;
    std::size_t argmax = 0;
    long double sum_sq = 0.0L;
    for (std::size_t j = 0; j < procs; ++j) {
      const double cj = eval.completion_time(j, flat.queue(j));
      if (cj > max) {
        max = cj;
        argmax = j;
      }
      const long double dev = static_cast<long double>(eval.psi()) - cj;
      sum_sq += dev * dev;
    }
    EXPECT_EQ(loads.max_completion, max);
    EXPECT_EQ(e.makespan, max);
    EXPECT_EQ(loads.heaviest, argmax);
    if (ties) EXPECT_EQ(loads.heaviest, 0u);
    EXPECT_LE(deviation(loads.sum_sq, sum_sq, eval.psi() * eval.psi()),
              1e-13);
    EXPECT_EQ(e.relative_error, std::sqrt(loads.sum_sq));
  }
}

TEST(ExactPricing, FitnessIsTheClampedReciprocalOfRelativeError) {
  util::Rng rng(56);
  FlatSchedule flat;
  bool saw_clamped = false, saw_reciprocal = false;
  for (int round = 0; round < 200; ++round) {
    const std::size_t tasks = 1 + rng.index(30);
    const std::size_t procs = 1 + rng.index(4);
    const ScheduleCodec codec(tasks, procs);
    // Tiny tasks on fast processors make E ≤ 1 common; big ones make it
    // rare, so both arms of the clamp are exercised.
    std::vector<double> sizes = random_sizes(tasks, rng);
    if (round % 2 == 0) {
      for (auto& t : sizes) t = t / 1500.0;
    }
    const ScheduleEvaluator eval(sizes, random_view(procs, 0.01, rng),
                                 rng.bernoulli(0.5));
    codec.decode_into(random_chromosome(codec, rng), flat);
    const BatchEvaluation e = eval.evaluate(flat);
    if (e.relative_error <= 1.0) {
      EXPECT_EQ(e.fitness, 1.0);
      saw_clamped = true;
    } else {
      EXPECT_EQ(e.fitness, 1.0 / e.relative_error);
      saw_reciprocal = true;
    }
    EXPECT_EQ(eval.fitness(flat), e.fitness);
  }
  EXPECT_TRUE(saw_clamped);
  EXPECT_TRUE(saw_reciprocal);
}

// core::NumericMode is a stub kept for bench/e2e/gasched_bench.cpp; its
// only value must leave every pricing path as the 3-argument evaluator
// prices it.
TEST(ExactPricing, NumericModeStubChangesNothing) {
  EXPECT_EQ(ga::GaConfig{}.numeric_mode, NumericMode::kExact);
  util::Rng rng(57);
  FlatSchedule flat;
  QueueLoads plain_loads, stub_loads;
  for (int round = 0; round < 40; ++round) {
    const std::size_t tasks = 1 + rng.index(60);
    const std::size_t procs = 1 + rng.index(10);
    const ScheduleCodec codec(tasks, procs);
    const std::vector<double> sizes = random_sizes(tasks, rng);
    const sim::SystemView view = random_view(procs, 30.0, rng);
    const bool use_comm = rng.bernoulli(0.5);
    const ScheduleEvaluator plain(sizes, view, use_comm);
    const ScheduleEvaluator stub(sizes, view, use_comm,
                                 ga::GaConfig{}.numeric_mode);
    codec.decode_into(random_chromosome(codec, rng), flat);

    EXPECT_EQ(plain.psi(), stub.psi());
    expect_same(plain.evaluate(flat), stub.evaluate(flat));
    expect_same(plain.load(flat, plain_loads), stub.load(flat, stub_loads));
    EXPECT_EQ(plain_loads.completion, stub_loads.completion);
    EXPECT_EQ(plain_loads.sum_sq, stub_loads.sum_sq);
  }
}

// ψ depends on sizes, rates and pending loads only; dropping the Γc_j
// term (the ZO baseline) lowers each C_j by exactly Γc_j per task.
TEST(ExactPricing, CommTermAddsPerTaskCostAndLeavesPsiAlone) {
  util::Rng rng(58);
  FlatSchedule flat;
  for (int round = 0; round < 40; ++round) {
    const std::size_t tasks = 1 + rng.index(80);
    const std::size_t procs = 1 + rng.index(9);
    const ScheduleCodec codec(tasks, procs);
    const std::vector<double> sizes = random_sizes(tasks, rng);
    const sim::SystemView view = random_view(procs, 30.0, rng);
    const ScheduleEvaluator pn(sizes, view, true);
    const ScheduleEvaluator zo(sizes, view, false);
    codec.decode_into(random_chromosome(codec, rng), flat);

    EXPECT_EQ(pn.psi(), zo.psi());
    for (std::size_t j = 0; j < procs; ++j) {
      const auto q = flat.queue(j);
      EXPECT_EQ(zo.comm(j), 0.0);
      EXPECT_EQ(pn.comm(j), view.procs[j].comm_estimate);
      long double ref_zo = view.procs[j].pending_mflops / view.procs[j].rate;
      for (const std::size_t slot : q) {
        ref_zo += static_cast<long double>(sizes[slot]) / view.procs[j].rate;
      }
      const double c_zo = zo.completion_time(j, q);
      const double c_pn = pn.completion_time(j, q);
      EXPECT_LE(deviation(c_zo, ref_zo, 1.0), 1e-13) << "j=" << j;
      EXPECT_LE(deviation(c_pn - c_zo,
                          static_cast<long double>(q.size()) * pn.comm(j),
                          std::max(c_pn, 1.0)),
                1e-13)
          << "j=" << j;
      EXPECT_GE(c_pn, c_zo);
    }
  }
}

// The engine routes every evaluation sweep through evaluate_batch; for a
// ScheduleProblem it must agree bit for bit with pricing each chromosome
// on its own, memo hits (repeated indices) included.
TEST(ExactPricing, EvaluateBatchMatchesPerChromosomeEvaluate) {
  util::Rng rng(59);
  const std::size_t tasks = 40, procs = 8;
  const ScheduleCodec codec(tasks, procs);
  const ScheduleEvaluator eval(random_sizes(tasks, rng),
                               random_view(procs, 20.0, rng), true);
  const ScheduleProblem problem(codec, eval);

  std::vector<ga::Chromosome> pop;
  for (int k = 0; k < 24; ++k) pop.push_back(random_chromosome(codec, rng));
  std::vector<std::size_t> indices;
  for (std::size_t k = 0; k < pop.size(); k += 2) indices.push_back(k);
  indices.push_back(0);
  indices.push_back(4);

  const auto ws = problem.make_workspace();
  std::vector<ga::GaProblem::Evaluation> got(indices.size());
  problem.evaluate_batch(pop, indices, ws.get(), got.data());

  FlatSchedule flat;
  QueueLoads loads;
  for (std::size_t k = 0; k < indices.size(); ++k) {
    const BatchEvaluation want =
        eval.load_decoded(codec, pop[indices[k]], flat, loads);
    EXPECT_EQ(got[k].fitness, want.fitness) << k;
    EXPECT_EQ(got[k].objective, want.makespan) << k;
    const auto single = problem.evaluate(pop[indices[k]], nullptr);
    EXPECT_EQ(got[k].fitness, single.fitness) << k;
    EXPECT_EQ(got[k].objective, single.objective) << k;
  }
}

TEST(ExactPricing, GaRunIsReproducibleAndReportsItsBestPricing) {
  util::Rng rng(60);
  const std::size_t tasks = 30, procs = 6;
  const ScheduleCodec codec(tasks, procs);
  const ScheduleEvaluator eval(random_sizes(tasks, rng),
                               random_view(procs, 20.0, rng), true);
  const ScheduleProblem problem(codec, eval);

  ga::GaConfig cfg;
  cfg.population = 10;
  cfg.max_generations = 12;
  const ga::RouletteSelection sel;
  const ga::CycleCrossover cx;
  const ga::SwapMutation mut;
  const ga::GaEngine engine(cfg, sel, cx, mut);

  std::vector<ga::Chromosome> initial;
  for (std::size_t k = 0; k < cfg.population; ++k) {
    initial.push_back(random_chromosome(codec, rng));
  }
  const auto run = [&] {
    util::Rng ga_rng(61);
    return engine.run(problem, initial, ga_rng);
  };
  const ga::GaResult a = run();
  const ga::GaResult b = run();

  EXPECT_GT(a.evaluations, 0u);
  EXPECT_GT(a.best_fitness, 0.0);
  EXPECT_EQ(a.best, b.best);
  EXPECT_EQ(a.best_fitness, b.best_fitness);
  EXPECT_EQ(a.best_objective, b.best_objective);
  EXPECT_EQ(a.generations, b.generations);
  EXPECT_EQ(a.evaluations, b.evaluations);

  // The reported best is the best chromosome's own pricing.
  FlatSchedule flat;
  QueueLoads loads;
  const BatchEvaluation best = eval.load_decoded(codec, a.best, flat, loads);
  EXPECT_EQ(a.best_fitness, best.fitness);
  EXPECT_EQ(a.best_objective, best.makespan);
}

}  // namespace
}  // namespace gasched::core
