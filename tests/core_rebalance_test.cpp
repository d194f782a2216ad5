// Tests for the re-balancing heuristic (paper §3.5).

#include "core/rebalance.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <iterator>
#include <span>
#include <stdexcept>
#include <utility>
#include <vector>

namespace gasched::core {
namespace {

sim::SystemView make_view(std::vector<double> rates) {
  sim::SystemView v;
  v.procs.resize(rates.size());
  for (std::size_t j = 0; j < rates.size(); ++j) {
    v.procs[j].id = static_cast<sim::ProcId>(j);
    v.procs[j].rate = rates[j];
  }
  return v;
}

TEST(Rebalance, NeverInvalidatesChromosome) {
  util::Rng rng(1);
  const std::size_t H = 30, M = 4;
  std::vector<double> sizes;
  for (std::size_t i = 0; i < H; ++i) {
    sizes.push_back(rng.uniform(10.0, 500.0));
  }
  const ScheduleCodec codec(H, M);
  const ScheduleEvaluator eval(sizes, make_view({10, 20, 30, 40}), false);
  for (int trial = 0; trial < 200; ++trial) {
    ga::Chromosome c;
    for (std::size_t i = 0; i < H; ++i) c.push_back(static_cast<ga::Gene>(i));
    for (std::size_t k = 0; k + 1 < M; ++k) {
      c.push_back(ScheduleCodec::delimiter_gene(k));
    }
    rng.shuffle(c);
    rebalance_once(c, codec, eval, rng);
    ASSERT_TRUE(codec.valid(c));
  }
}

TEST(Rebalance, NeverDecreasesFitness) {
  util::Rng rng(2);
  const std::size_t H = 24, M = 3;
  std::vector<double> sizes;
  for (std::size_t i = 0; i < H; ++i) {
    sizes.push_back(rng.uniform(10.0, 500.0));
  }
  const ScheduleCodec codec(H, M);
  const ScheduleEvaluator eval(sizes, make_view({10, 25, 60}), false);
  for (int trial = 0; trial < 200; ++trial) {
    ga::Chromosome c;
    for (std::size_t i = 0; i < H; ++i) c.push_back(static_cast<ga::Gene>(i));
    for (std::size_t k = 0; k + 1 < M; ++k) {
      c.push_back(ScheduleCodec::delimiter_gene(k));
    }
    rng.shuffle(c);
    const double before = eval.fitness(codec.decode(c));
    const bool improved = rebalance_once(c, codec, eval, rng);
    const double after = eval.fitness(codec.decode(c));
    if (improved) {
      ASSERT_GT(after, before);
    } else {
      ASSERT_DOUBLE_EQ(after, before);
    }
  }
}

TEST(Rebalance, ImprovesBlatantImbalance) {
  // All big tasks on proc 0, all small on proc 1; repeated rebalances
  // should find improving swaps with high probability.
  const std::size_t H = 10;
  std::vector<double> sizes;
  for (std::size_t i = 0; i < 5; ++i) sizes.push_back(1000.0);
  for (std::size_t i = 0; i < 5; ++i) sizes.push_back(10.0);
  const ScheduleCodec codec(H, 2);
  const ScheduleEvaluator eval(sizes, make_view({10.0, 10.0}), false);
  const ProcQueues skewed{{0, 1, 2, 3, 4}, {5, 6, 7, 8, 9}};
  ga::Chromosome c = codec.encode(skewed);
  util::Rng rng(3);
  const double before = eval.fitness(codec.decode(c));
  int improvements = 0;
  for (int pass = 0; pass < 50; ++pass) {
    if (rebalance_once(c, codec, eval, rng)) ++improvements;
  }
  EXPECT_GT(improvements, 0);
  EXPECT_GT(eval.fitness(codec.decode(c)), before);
}

TEST(Rebalance, SingleProcessorIsNoop) {
  const ScheduleCodec codec(5, 1);
  const ScheduleEvaluator eval({10, 20, 30, 40, 50}, make_view({10.0}),
                               false);
  ga::Chromosome c = codec.encode(ProcQueues{{0, 1, 2, 3, 4}});
  const ga::Chromosome before = c;
  util::Rng rng(4);
  EXPECT_FALSE(rebalance_once(c, codec, eval, rng));
  EXPECT_EQ(c, before);
}

TEST(Rebalance, EmptyHeavyQueueImpossible) {
  // If every task sits on one processor, that processor is heaviest; an
  // empty-queue heavy processor can only occur with an empty batch.
  const ScheduleCodec codec(0, 3);
  const ScheduleEvaluator eval({}, make_view({10, 10, 10}), false);
  ga::Chromosome c = codec.encode(ProcQueues(3));
  util::Rng rng(5);
  EXPECT_FALSE(rebalance_once(c, codec, eval, rng));
}

TEST(Rebalance, RespectsProbeBudget) {
  // With probes = 0 the heuristic must never change anything.
  const ScheduleCodec codec(6, 2);
  const ScheduleEvaluator eval({100, 200, 300, 10, 20, 30},
                               make_view({10, 10}), false);
  ga::Chromosome c =
      codec.encode(ProcQueues{{0, 1, 2}, {3, 4, 5}});
  const ga::Chromosome before = c;
  util::Rng rng(6);
  EXPECT_FALSE(rebalance_once(c, codec, eval, rng, 0));
  EXPECT_EQ(c, before);
}

// ---- Pricing memo contract ----------------------------------------------

sim::SystemView random_view(std::size_t procs, util::Rng& rng) {
  sim::SystemView v;
  v.procs.resize(procs);
  for (std::size_t j = 0; j < procs; ++j) {
    v.procs[j].id = static_cast<sim::ProcId>(j);
    v.procs[j].rate = rng.uniform(5.0, 120.0);
    v.procs[j].pending_mflops =
        rng.bernoulli(0.5) ? rng.uniform(0.0, 500.0) : 0.0;
    v.procs[j].comm_estimate = rng.uniform(0.1, 30.0);
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
  for (std::size_t s = 0; s < codec.num_tasks(); ++s) {
    c.push_back(ScheduleCodec::task_gene(s));
  }
  for (std::size_t k = 0; k + 1 < codec.num_procs(); ++k) {
    c.push_back(ScheduleCodec::delimiter_gene(k));
  }
  rng.shuffle(c);
  return c;
}

/// What a re-balancing pass returned and published through the
/// improve-supplied evaluation channel.
struct ReferenceResult {
  bool changed = false;
  bool supplied = false;
  BatchEvaluation eval;
  /// The evaluated probe, if there was one: the base pricing's sum of
  /// squared deviations and the two swapped queues' completions before
  /// (a = the other queue, b = the heavy one) and after the swap.
  bool probed = false;
  double base_sum_sq = 0.0;
  double old_a = 0.0, old_b = 0.0, new_a = 0.0, new_b = 0.0;
};
/// The re-balancing pass without the memo: a fused decode + full pricing
/// on every call, the probe on the decoded schedule and its load cache.
ReferenceResult reference_rebalance(ga::Chromosome& c,
                                    const ScheduleCodec& codec,
                                    const ScheduleEvaluator& eval,
                                    util::Rng& rng, std::size_t probes,
                                    FlatSchedule& s, QueueLoads& loads) {
  const BatchEvaluation base = eval.load_decoded(codec, c, s, loads);
  const std::size_t M = s.num_procs();
  if (M < 2) return {};
  const std::size_t heavy = loads.heaviest;
  if (s.queue(heavy).empty()) return {false, true, base};
  for (std::size_t probe = 0; probe < probes; ++probe) {
    const std::size_t other = rng.index(M);
    if (other == heavy || s.queue(other).empty()) continue;
    const auto other_q = s.queue(other);
    const auto heavy_q = s.queue(heavy);
    const std::size_t oi = rng.index(other_q.size());
    const std::size_t hi = rng.index(heavy_q.size());
    const std::size_t small_slot = other_q[oi];
    const std::size_t big_slot = heavy_q[hi];
    if (!(eval.task_size(small_slot) < eval.task_size(big_slot))) continue;
    ReferenceResult r{false, true, base, true, loads.sum_sq,
                      loads.completion[other], loads.completion[heavy]};
    std::swap(other_q[oi], heavy_q[hi]);
    const BatchEvaluation cand = eval.evaluate_swap(s, loads, other, heavy);
    r.new_a = loads.completion[other];
    r.new_b = loads.completion[heavy];
    if (cand.fitness > base.fitness) {
      const ga::Gene g_small = ScheduleCodec::task_gene(small_slot);
      const ga::Gene g_big = ScheduleCodec::task_gene(big_slot);
      for (auto& g : c) {
        if (g == g_small) {
          g = g_big;
        } else if (g == g_big) {
          g = g_small;
        }
      }
      r.changed = true;
      r.eval = cand;
    }
    return r;
  }
  return {false, true, base};
}

/// Δ = (d'_a + d'_b) − (d_a + d_b) of an evaluated probe, with
/// d = (ψ − C)²: the change of the sum of squares the certificate reads.
double probe_delta(const ReferenceResult& r, double psi) {
  auto sq = [psi](double c) { return (psi - c) * (psi - c); };
  return (sq(r.new_a) + sq(r.new_b)) - (sq(r.old_a) + sq(r.old_b));
}

/// The certificate's slack 4(M + 8)·u·(S + d_a + d_b + d'_a + d'_b),
/// or only its four-term part when `with_base` is false.
double certificate_slack(const ReferenceResult& r, double psi, std::size_t M,
                         bool with_base) {
  auto sq = [psi](double c) { return (psi - c) * (psi - c); };
  const double terms = sq(r.old_a) + sq(r.old_b) + sq(r.new_a) + sq(r.new_b);
  return 4.0 * static_cast<double>(M + 8) * 0x1p-53 *
         ((with_base ? r.base_sum_sq : 0.0) + terms);
}

/// The schedule form of `c`, written out here rather than through the
/// codec: task genes unchanged, every delimiter −1.
ga::Chromosome schedule_form(ga::Chromosome c) {
  for (ga::Gene& g : c) {
    if (g < 0) g = -1;
  }
  return c;
}

/// True when `key` is the schedule form of `c`, gene for gene.
bool is_schedule_form_of(std::span<const ga::Gene> key,
                         const ga::Chromosome& c) {
  const ga::Chromosome want = schedule_form(c);
  return std::equal(key.begin(), key.end(), want.begin(), want.end());
}

/// `c` with its delimiter genes shuffled among the delimiter positions:
/// another chromosome with the same decoded schedule.
ga::Chromosome permute_delimiters(const ga::Chromosome& c, util::Rng& rng) {
  std::vector<ga::Gene> delims;
  for (const ga::Gene g : c) {
    if (g < 0) delims.push_back(g);
  }
  rng.shuffle(delims);
  ga::Chromosome out = c;
  std::size_t k = 0;
  for (ga::Gene& g : out) {
    if (g < 0) g = delims[k++];
  }
  return out;
}

void expect_same(const BatchEvaluation& a, const BatchEvaluation& b) {
  EXPECT_EQ(a.fitness, b.fitness);
  EXPECT_EQ(a.makespan, b.makespan);
  EXPECT_EQ(a.relative_error, b.relative_error);
}

/// Entry `e` of `ws.memo` must be keyed by the schedule form of `c` and
/// hold exactly the schedule and load cache a fresh load_decoded(c)
/// produces.
void expect_entry_is_fresh_pricing(const ScheduleCodec& codec,
                                   const ScheduleEvaluator& eval,
                                   const EvalWorkspace& ws, std::size_t e,
                                   const ga::Chromosome& c) {
  FlatSchedule fresh_s;
  QueueLoads fresh;
  const BatchEvaluation want = eval.load_decoded(codec, c, fresh_s, fresh);
  const auto key = ws.memo.key(e);
  ASSERT_TRUE(is_schedule_form_of(key, c));
  const auto got = ws.memo.completions(e);
  expect_same(ws.memo.evaluation(e), want);
  ASSERT_EQ(got.size(), fresh.completion.size());
  for (std::size_t j = 0; j < got.size(); ++j) {
    EXPECT_EQ(got[j], fresh.completion[j]) << "C_" << j;
    if (eval.numeric_mode() == NumericMode::kExact) {
      const double dev = eval.psi() - got[j];
      EXPECT_EQ(dev * dev, fresh.dev_sq[j]) << "(psi - C_" << j << ")^2";
    }
  }
  EXPECT_EQ(ws.memo.sum_sq(e), fresh.sum_sq);
  EXPECT_EQ(ws.memo.evaluation(e).makespan, fresh.max_completion);
  EXPECT_EQ(ws.memo.heaviest(e), fresh.heaviest);
  expect_same(ws.memo.evaluation(e), fresh.eval);
  for (std::size_t j = 0; j < codec.num_procs(); ++j) {
    ASSERT_EQ(ws.memo.queue_size(e, j), fresh_s.queue(j).size());
    for (std::size_t i = 0; i < fresh_s.queue(j).size(); ++i) {
      EXPECT_EQ(ScheduleCodec::task_slot(key[ws.memo.queue_begin(e, j) + i]),
                fresh_s.queue(j)[i]);
    }
  }
}

/// Shapes covering one-task batches (most queues empty), N ≈ M, and long
/// queues (N ≥ 8M: the kFast gather shape).
const std::pair<std::size_t, std::size_t> kShapes[] = {
    {1, 6}, {5, 9}, {24, 6}, {64, 4}};

TEST(PricingMemo, RepeatedChromosomesHitWithFreshPricing) {
  for (const NumericMode mode : {NumericMode::kExact, NumericMode::kFast}) {
    util::Rng rng(31);
    for (const auto& [tasks, procs] : kShapes) {
      const ScheduleCodec codec(tasks, procs);
      const ScheduleEvaluator eval(random_sizes(tasks, rng),
                                   random_view(procs, rng), true, mode);
      const ScheduleProblem problem(codec, eval);
      EvalWorkspace ws;
      std::vector<ga::Chromosome> pool;
      for (int k = 0; k < 3; ++k) pool.push_back(random_chromosome(codec, rng));
      for (int round = 0; round < 4; ++round) {
        for (const ga::Chromosome& c : pool) {
          const auto ev = problem.evaluate(c, &ws);
          FlatSchedule fs;
          QueueLoads fl;
          const BatchEvaluation want = eval.load_decoded(codec, c, fs, fl);
          EXPECT_EQ(ev.fitness, want.fitness);
          EXPECT_EQ(ev.objective, want.makespan);
          const std::size_t e = eval.load_memo(codec, c, ws);
          expect_entry_is_fresh_pricing(codec, eval, ws, e, c);
        }
      }
      // Every repeat was a hit: one entry per distinct chromosome (random
      // one-task chromosomes may coincide).
      EXPECT_LE(ws.memo.size(), pool.size());
      EXPECT_GE(ws.memo.size(), 1u);
    }
  }
}

TEST(PricingMemo, RebalanceMatchesMemoFreePassProbeByProbe) {
  // Rejected probes must leave the entry holding the unchanged chromosome
  // and its base pricing; accepted ones must rekey it to the swapped one.
  for (const NumericMode mode : {NumericMode::kExact, NumericMode::kFast}) {
    util::Rng rng(32);
    std::size_t accepted = 0, rejected = 0;
    for (const auto& [tasks, procs] : kShapes) {
      const ScheduleCodec codec(tasks, procs);
      const ScheduleEvaluator eval(random_sizes(tasks, rng),
                                   random_view(procs, rng), true, mode);
      EvalWorkspace ws;
      FlatSchedule ref_s;
      QueueLoads ref_loads;
      // A small pool that the passes keep improving: chromosomes repeat
      // (memo hits) and change (rekeys, then misses on the old key).
      std::vector<ga::Chromosome> pool;
      for (int k = 0; k < 5; ++k) pool.push_back(random_chromosome(codec, rng));
      for (int step = 0; step < 400; ++step) {
        ga::Chromosome& c = pool[rng.index(pool.size())];
        ga::Chromosome ref_c = c;
        const std::uint64_t seed = 5000 + static_cast<std::uint64_t>(step);
        util::Rng r_memo(seed), r_ref(seed);
        ws.has_improve_evaluation = false;
        const bool changed = rebalance_once(c, codec, eval, r_memo, 5, ws);
        const ReferenceResult ref =
            reference_rebalance(ref_c, codec, eval, r_ref, 5, ref_s, ref_loads);
        ASSERT_EQ(changed, ref.changed);
        ASSERT_EQ(c, ref_c);
        ASSERT_EQ(ws.has_improve_evaluation, ref.supplied);
        if (ref.supplied) {
          EXPECT_EQ(ws.improve_evaluation.fitness, ref.eval.fitness);
          EXPECT_EQ(ws.improve_evaluation.objective, ref.eval.makespan);
        }
        EXPECT_EQ(r_memo.next_u64(), r_ref.next_u64());
        (changed ? accepted : rejected) += 1;
        // c must be a hit on the first entry keyed by its schedule form
        // (the one find() scans to first). A size check cannot tell: once
        // the memo is full a miss evicts one entry and inserts another.
        std::size_t held = PricingMemo::kCapacity;
        for (std::size_t i = 0; i < PricingMemo::kCapacity; ++i) {
          if (is_schedule_form_of(ws.memo.key(i), c)) {
            held = i;
            break;
          }
        }
        ASSERT_NE(held, PricingMemo::kCapacity) << "no entry holds c";
        const std::size_t e = eval.load_memo(codec, c, ws);
        EXPECT_EQ(e, held) << "entry must hold c: a hit";
        expect_entry_is_fresh_pricing(codec, eval, ws, e, c);
      }
    }
    EXPECT_GT(accepted, 20u);
    EXPECT_GT(rejected, 20u);
  }
}

TEST(PricingMemo, AcceptedSwapRekeysEntryToSwappedChromosome) {
  const ScheduleCodec codec(10, 2);
  std::vector<double> sizes(5, 1000.0);
  sizes.resize(10, 10.0);
  const ScheduleEvaluator eval(sizes, make_view({10.0, 10.0}), false);
  const ScheduleProblem problem(codec, eval);
  const ga::Chromosome skewed =
      codec.encode(ProcQueues{{0, 1, 2, 3, 4}, {5, 6, 7, 8, 9}});
  EvalWorkspace ws;
  ga::Chromosome c = skewed;
  util::Rng rng(33);
  while (!rebalance_once(c, codec, eval, rng, 5, ws)) c = skewed;
  ASSERT_NE(c, skewed);
  // The swapped chromosome is the rekeyed entry: pricing it again is a
  // hit, and the old key is gone (pricing it is a miss that inserts).
  const std::size_t entries = ws.memo.size();
  const auto swapped = problem.evaluate(c, &ws);
  EXPECT_EQ(ws.memo.size(), entries);
  EXPECT_EQ(swapped.fitness, eval.fitness(codec.decode(c)));
  expect_entry_is_fresh_pricing(codec, eval, ws, eval.load_memo(codec, c, ws),
                                c);
  problem.evaluate(skewed, &ws);
  EXPECT_EQ(ws.memo.size(), entries + 1);
  expect_entry_is_fresh_pricing(codec, eval, ws,
                                eval.load_memo(codec, skewed, ws), skewed);
}

TEST(PricingMemo, EvaluatorSwitchClearsEntries) {
  util::Rng rng(34);
  const ScheduleCodec codec(12, 3);
  const ScheduleEvaluator a(random_sizes(12, rng), random_view(3, rng), true);
  const ScheduleEvaluator b(random_sizes(12, rng), random_view(3, rng), true);
  const ScheduleProblem pa(codec, a), pb(codec, b);
  EvalWorkspace ws;
  const ga::Chromosome c1 = random_chromosome(codec, rng);
  const ga::Chromosome c2 = random_chromosome(codec, rng);
  for (int round = 0; round < 3; ++round) {
    for (const auto* p : {&pa, &pb}) {
      const ScheduleEvaluator& ev = p == &pa ? a : b;
      for (const ga::Chromosome* c : {&c1, &c2}) {
        EXPECT_EQ(p->evaluate(*c, &ws).fitness, ev.fitness(codec.decode(*c)));
        expect_entry_is_fresh_pricing(codec, ev, ws,
                                      ev.load_memo(codec, *c, ws), *c);
      }
      // Only the current evaluator's pricings are live.
      EXPECT_EQ(ws.memo.size(), 2u);
    }
  }
  // Same chromosome, different evaluator: never served from the other's
  // entry, so the results differ here.
  EXPECT_NE(pa.evaluate(c1, &ws).fitness, pb.evaluate(c1, &ws).fitness);
}

TEST(PricingMemo, EvictsLeastRecentlyUsedEntry) {
  util::Rng rng(35);
  const ScheduleCodec codec(20, 4);
  const ScheduleEvaluator eval(random_sizes(20, rng), random_view(4, rng),
                               true);
  EvalWorkspace ws;
  std::vector<ga::Chromosome> cs;
  for (std::size_t k = 0; k <= PricingMemo::kCapacity; ++k) {
    cs.push_back(random_chromosome(codec, rng));
  }
  for (std::size_t k = 0; k < PricingMemo::kCapacity; ++k) {
    eval.load_memo(codec, cs[k], ws);
  }
  eval.load_memo(codec, cs[0], ws);  // refresh the oldest: cs[1] is LRU now
  const std::size_t e = eval.load_memo(codec, cs.back(), ws);
  EXPECT_EQ(ws.memo.size(), PricingMemo::kCapacity);
  expect_entry_is_fresh_pricing(codec, eval, ws, e, cs.back());
  auto held = [&](const ga::Chromosome& c) {
    for (std::size_t i = 0; i < PricingMemo::kCapacity; ++i) {
      if (is_schedule_form_of(ws.memo.key(i), c)) return true;
    }
    return false;
  };
  EXPECT_TRUE(held(cs[0]));
  EXPECT_FALSE(held(cs[1]));
  for (std::size_t k = 2; k < cs.size(); ++k) EXPECT_TRUE(held(cs[k]));
}

TEST(PricingMemo, DelimiterPermutationsShareOneEntry) {
  // Chromosomes that differ only in delimiter order decode to the same
  // queues: the first is priced, every other is a hit on its entry and
  // bit-identical to its own fresh pricing.
  for (const NumericMode mode : {NumericMode::kExact, NumericMode::kFast}) {
    util::Rng rng(37);
    for (const auto& [tasks, procs] : kShapes) {
      const ScheduleCodec codec(tasks, procs);
      const ScheduleEvaluator eval(random_sizes(tasks, rng),
                                   random_view(procs, rng), true, mode);
      const ScheduleProblem problem(codec, eval);
      for (int trial = 0; trial < 5; ++trial) {
        EvalWorkspace ws;
        const ga::Chromosome c = random_chromosome(codec, rng);
        const std::size_t e = eval.load_memo(codec, c, ws);
        for (int k = 0; k < 12; ++k) {
          const ga::Chromosome v = permute_delimiters(c, rng);
          ASSERT_EQ(codec.decode(v), codec.decode(c));
          const auto ev = problem.evaluate(v, &ws);
          FlatSchedule fs;
          QueueLoads fl;
          const BatchEvaluation want = eval.load_decoded(codec, v, fs, fl);
          EXPECT_EQ(ev.fitness, want.fitness);
          EXPECT_EQ(ev.objective, want.makespan);
          ASSERT_EQ(eval.load_memo(codec, v, ws), e);
          expect_entry_is_fresh_pricing(codec, eval, ws, e, v);
        }
        EXPECT_EQ(ws.memo.size(), 1u);
      }
    }
  }
}

TEST(PricingMemo, RebalanceOnDelimiterPermutedHitKeepsCallerDelimiters) {
  // A pass on a chromosome whose schedule is memoized under other
  // delimiter values works on that entry in place. It must swap only
  // task genes of the caller's chromosome, leave its delimiters where
  // they were, and match the memo-free pass probe by probe.
  for (const NumericMode mode : {NumericMode::kExact, NumericMode::kFast}) {
    util::Rng rng(38);
    std::size_t accepted = 0, rejected = 0;
    for (const auto& [tasks, procs] : kShapes) {
      const ScheduleCodec codec(tasks, procs);
      const ScheduleEvaluator eval(random_sizes(tasks, rng),
                                   random_view(procs, rng), true, mode);
      EvalWorkspace ws;
      FlatSchedule ref_s;
      QueueLoads ref_loads;
      ga::Chromosome c = random_chromosome(codec, rng);
      eval.load_memo(codec, c, ws);
      for (int step = 0; step < 150; ++step) {
        // The memo holds one entry, the schedule of c; v shares it.
        ga::Chromosome v = permute_delimiters(c, rng);
        const ga::Chromosome before = v;
        ga::Chromosome ref_v = v;
        const std::uint64_t seed = 7000 + static_cast<std::uint64_t>(step);
        util::Rng r_memo(seed), r_ref(seed);
        ws.has_improve_evaluation = false;
        const bool changed = rebalance_once(v, codec, eval, r_memo, 5, ws);
        const ReferenceResult ref =
            reference_rebalance(ref_v, codec, eval, r_ref, 5, ref_s, ref_loads);
        ASSERT_EQ(ws.memo.size(), 1u) << "the pass must hit c's entry";
        ASSERT_EQ(changed, ref.changed);
        ASSERT_EQ(v, ref_v);
        for (std::size_t i = 0; i < v.size(); ++i) {
          if (before[i] < 0) ASSERT_EQ(v[i], before[i]);
        }
        ASSERT_EQ(ws.has_improve_evaluation, ref.supplied);
        if (ref.supplied) {
          EXPECT_EQ(ws.improve_evaluation.fitness, ref.eval.fitness);
          EXPECT_EQ(ws.improve_evaluation.objective, ref.eval.makespan);
        }
        EXPECT_EQ(r_memo.next_u64(), r_ref.next_u64());
        (changed ? accepted : rejected) += 1;
        expect_entry_is_fresh_pricing(codec, eval, ws,
                                      eval.load_memo(codec, v, ws), v);
        c = v;
      }
    }
    EXPECT_GT(accepted, 10u);
    EXPECT_GT(rejected, 10u);
  }
}

TEST(PricingMemo, FastModeAuditStreamMatchesMemoFreeReplay) {
  // A hit stands in for one full pricing and a memo probe for one delta
  // pricing, so the kFast audit sees the same tick count and shadow-
  // prices the same schedules (same samples, same max deviation).
  for (const auto& [tasks, procs] : kShapes) {
    util::Rng rng(36);
    const auto sizes = random_sizes(tasks, rng);
    const auto view = random_view(procs, rng);
    ToleranceAudit memo_audit(AuditConfig{1e-12, 3});
    ToleranceAudit ref_audit(AuditConfig{1e-12, 3});
    auto build = [&](ToleranceAudit& audit) {
      ToleranceAudit::Scope scope(audit);
      return ScheduleEvaluator(sizes, view, true, NumericMode::kFast);
    };
    const ScheduleEvaluator memo_eval = build(memo_audit);
    const ScheduleEvaluator ref_eval = build(ref_audit);
    const ScheduleCodec codec(tasks, procs);
    const ScheduleProblem problem(codec, memo_eval);
    EvalWorkspace ws;
    FlatSchedule ref_s;
    QueueLoads ref_loads;
    std::vector<ga::Chromosome> pool;
    for (int k = 0; k < 4; ++k) pool.push_back(random_chromosome(codec, rng));
    for (int step = 0; step < 300; ++step) {
      ga::Chromosome& c = pool[rng.index(pool.size())];
      if (step % 3 == 0) {
        // ScheduleProblem::evaluate: one full pricing either way.
        problem.evaluate(c, &ws);
        ref_eval.load_decoded(codec, c, ref_s, ref_loads);
        continue;
      }
      ga::Chromosome ref_c = c;
      util::Rng r_memo(step), r_ref(step);
      rebalance_once(c, codec, memo_eval, r_memo, 5, ws);
      reference_rebalance(ref_c, codec, ref_eval, r_ref, 5, ref_s, ref_loads);
      ASSERT_EQ(c, ref_c);
    }
    EXPECT_EQ(ws.loads.audit_tick, ref_loads.audit_tick);
    EXPECT_GT(memo_audit.samples(), 50u);
    EXPECT_EQ(memo_audit.samples(), ref_audit.samples());
    EXPECT_EQ(memo_audit.max_deviation(), ref_audit.max_deviation());
  }
}

TEST(PricingMemo, CertifiedRejectionsMatchExactProbesOnRandomShapes) {
  // Differential test of the probe certificate. Every pass must match the
  // memo-free pass, which prices every candidate in full: outcome,
  // chromosome, published evaluation and RNG state. Every probe whose Δ
  // exceeds the certificate's slack is also checked against its exact
  // candidate directly: that candidate must never be fitter.
  for (const NumericMode mode : {NumericMode::kExact, NumericMode::kFast}) {
    util::Rng rng(39);
    std::vector<std::pair<std::size_t, std::size_t>> shapes(
        std::begin(kShapes), std::end(kShapes));
    shapes.insert(shapes.end(), {{50, 50}, {3, 64}, {120, 64}, {400, 64}});
    for (int k = 0; k < 8; ++k) {
      shapes.emplace_back(1 + rng.index(150), 2 + rng.index(63));
    }
    std::size_t probes = 0, certified = 0, accepted = 0;
    for (const auto& [tasks, procs] : shapes) {
      const ScheduleCodec codec(tasks, procs);
      const ScheduleEvaluator eval(random_sizes(tasks, rng),
                                   random_view(procs, rng), true, mode);
      EvalWorkspace ws;
      FlatSchedule ref_s;
      QueueLoads ref_loads;
      std::vector<ga::Chromosome> pool;
      for (int k = 0; k < 3; ++k) pool.push_back(random_chromosome(codec, rng));
      for (int step = 0; step < 600; ++step) {
        ga::Chromosome& c = pool[rng.index(pool.size())];
        ga::Chromosome ref_c = c;
        const std::uint64_t seed = 9000 + static_cast<std::uint64_t>(step);
        util::Rng r_memo(seed), r_ref(seed);
        ws.has_improve_evaluation = false;
        const bool changed = rebalance_once(c, codec, eval, r_memo, 5, ws);
        const ReferenceResult ref =
            reference_rebalance(ref_c, codec, eval, r_ref, 5, ref_s, ref_loads);
        ASSERT_EQ(changed, ref.changed) << tasks << "x" << procs;
        ASSERT_EQ(c, ref_c);
        ASSERT_EQ(ws.has_improve_evaluation, ref.supplied);
        if (ref.supplied) {
          EXPECT_EQ(ws.improve_evaluation.fitness, ref.eval.fitness);
          EXPECT_EQ(ws.improve_evaluation.objective, ref.eval.makespan);
        }
        ASSERT_EQ(r_memo.next_u64(), r_ref.next_u64());
        if (!ref.probed) continue;
        ++probes;
        accepted += ref.changed;
        if (probe_delta(ref, eval.psi()) >
            certificate_slack(ref, eval.psi(), procs, true)) {
          ++certified;
          ASSERT_FALSE(ref.changed) << "a certified probe was fitter";
        }
      }
    }
    EXPECT_GT(certified, probes / 2);
    EXPECT_GT(accepted, 100u);
  }
}

TEST(PricingMemo, NearTieProbeWithPositiveDeltaIsPricedInFull) {
  // Δ > 0 alone does not prove a candidate worse: S and S' are rounded
  // sums. After a large first term, (ψ − 0)² of a slow, empty processor,
  // each later term is rounded onto that term's grid on its own, so two
  // changes of opposite sign whose exact sum is slightly positive can
  // still round S' a step below S. The search builds such near-ties: two
  // queues just above ψ whose swap mirrors them (C_a' ≈ C_b, C_b' ≈ C_a),
  // so that d_a and d_b trade places up to a few ulps. It stops at a probe
  // whose Δ is positive, indeed beyond the four-term part of the slack,
  // and whose exact candidate is fitter all the same. The memo's pass
  // must keep that swap: a bare Δ > 0 test, or a slack without S, would
  // reject it.
  for (const NumericMode mode : {NumericMode::kExact, NumericMode::kFast}) {
    util::Rng rng(40);
    const ScheduleCodec codec(4, 3);
    FlatSchedule ref_s;
    QueueLoads ref_loads;
    bool found = false;
    int tries = 0;
    for (; tries < 20000 && !found; ++tries) {
      const double x = rng.uniform(500.0, 1500.0);
      const double ulps = static_cast<double>(rng.index(129)) - 64.0;
      const double y = x * (1.0 + ulps * 0x1p-52);
      const double small = rng.uniform(10.0, 100.0);
      const double big = small + rng.uniform(0.5, 10.0);
      const ScheduleEvaluator eval({small, x, big, y},
                                   make_view({0.5, 10.0, 10.0}), false, mode);
      std::vector<std::size_t> qa{0, 1}, qb{2, 3};
      if (rng.bernoulli(0.5)) std::swap(qa[0], qa[1]);
      if (rng.bernoulli(0.5)) std::swap(qb[0], qb[1]);
      const ga::Chromosome c = codec.encode(ProcQueues{{}, qa, qb});
      const std::uint64_t seed = rng.next_u64();
      ga::Chromosome ref_c = c;
      util::Rng r_ref(seed);
      const ReferenceResult ref =
          reference_rebalance(ref_c, codec, eval, r_ref, 5, ref_s, ref_loads);
      if (!ref.probed || !ref.changed ||
          !(probe_delta(ref, eval.psi()) >
            certificate_slack(ref, eval.psi(), 3, false))) {
        continue;
      }
      found = true;
      EvalWorkspace ws;
      ga::Chromosome memo_c = c;
      util::Rng r_memo(seed);
      EXPECT_TRUE(rebalance_once(memo_c, codec, eval, r_memo, 5, ws))
          << "the near-tie swap was rejected";
      EXPECT_EQ(memo_c, ref_c);
      EXPECT_EQ(ws.improve_evaluation.fitness, ref.eval.fitness);
      EXPECT_EQ(r_memo.next_u64(), r_ref.next_u64());
    }
    ASSERT_TRUE(found) << "no near-tie in " << tries << " tries";
  }
}

TEST(PricingMemo, TooManyDelimitersThrowAndLeaveEveryEntryAsItWas) {
  for (const NumericMode mode : {NumericMode::kExact, NumericMode::kFast}) {
    util::Rng rng(41);
    for (const auto& [tasks, procs] : kShapes) {
      const ScheduleCodec codec(tasks, procs);
      const ScheduleEvaluator eval(random_sizes(tasks, rng),
                                   random_view(procs, rng), true, mode);
      EvalWorkspace ws;
      std::vector<ga::Chromosome> priced;
      // Throw into a partly filled memo, then into a full one.
      for (std::size_t k = 0; k < PricingMemo::kCapacity + 3; ++k) {
        priced.push_back(random_chromosome(codec, rng));
        eval.load_memo(codec, priced.back(), ws);
        ga::Chromosome bad = random_chromosome(codec, rng);
        *std::find_if(bad.begin(), bad.end(), [](ga::Gene g) {
          return !ScheduleCodec::is_delimiter(g);
        }) = ScheduleCodec::delimiter_gene(0);
        const std::size_t live = ws.memo.size();
        EXPECT_THROW(eval.load_memo(codec, bad, ws), std::invalid_argument);
        ASSERT_EQ(ws.memo.size(), live);
        std::size_t held = 0;
        for (std::size_t e = 0; e < PricingMemo::kCapacity; ++e) {
          for (const ga::Chromosome& c : priced) {
            if (!is_schedule_form_of(ws.memo.key(e), c)) continue;
            ++held;
            expect_entry_is_fresh_pricing(codec, eval, ws, e, c);
            break;
          }
        }
        EXPECT_GE(held, live);
      }
    }
  }
}

}  // namespace
}  // namespace gasched::core
