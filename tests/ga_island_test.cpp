// Tests for the island-model GA (ga/island.hpp).
//
// Uses a self-contained permutation problem — minimise the number of
// positions where the chromosome differs from the identity permutation —
// so island behaviour is tested independently of the scheduling stack.

#include "ga/island.hpp"

#include <gtest/gtest.h>

#include <numeric>

namespace gasched::ga {
namespace {

/// Objective: count of misplaced genes; fitness: 1/(1+objective).
class SortProblem final : public GaProblem {
 public:
  double fitness(const Chromosome& c) const override {
    return 1.0 / (1.0 + objective(c));
  }
  double objective(const Chromosome& c) const override {
    double misplaced = 0.0;
    for (std::size_t i = 0; i < c.size(); ++i) {
      if (c[i] != static_cast<Gene>(i)) misplaced += 1.0;
    }
    return misplaced;
  }
};

std::vector<Chromosome> scrambled_population(std::size_t count,
                                             std::size_t length,
                                             util::Rng& rng) {
  std::vector<Chromosome> pop;
  pop.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    Chromosome c(length);
    std::iota(c.begin(), c.end(), Gene{0});
    rng.shuffle(c);
    pop.push_back(std::move(c));
  }
  return pop;
}

IslandConfig base_config() {
  IslandConfig cfg;
  cfg.ga.population = 12;
  cfg.ga.max_generations = 120;
  cfg.ga.mutants_per_generation = 2;
  cfg.islands = 4;
  cfg.migration_interval = 20;
  cfg.migrants = 2;
  return cfg;
}

struct Operators {
  RouletteSelection selection;
  CycleCrossover crossover;
  SwapMutation mutation;
};

IslandResult run(const IslandConfig& cfg, std::uint64_t seed,
                 std::size_t length = 12, const StopPredicate& stop = {}) {
  const SortProblem problem;
  const Operators ops;
  util::Rng rng(seed);
  auto initial =
      scrambled_population(cfg.ga.population * cfg.islands, length, rng);
  util::Rng run_rng = rng.split(99);
  return run_island_ga(problem, cfg, ops.selection, ops.crossover,
                       ops.mutation, std::move(initial), run_rng, stop);
}

TEST(IslandGa, RejectsDegenerateConfigurations) {
  const SortProblem problem;
  const Operators ops;
  util::Rng rng(1);
  IslandConfig cfg = base_config();

  cfg.islands = 0;
  EXPECT_THROW(run_island_ga(problem, cfg, ops.selection, ops.crossover,
                             ops.mutation, scrambled_population(4, 6, rng),
                             rng),
               std::invalid_argument);

  cfg = base_config();
  cfg.migration_interval = 0;
  EXPECT_THROW(run_island_ga(problem, cfg, ops.selection, ops.crossover,
                             ops.mutation, scrambled_population(4, 6, rng),
                             rng),
               std::invalid_argument);

  cfg = base_config();
  EXPECT_THROW(run_island_ga(problem, cfg, ops.selection, ops.crossover,
                             ops.mutation, {}, rng),
               std::invalid_argument);
}

TEST(IslandGa, SolvesSmallPermutationProblem) {
  const auto result = run(base_config(), 7, 8);
  EXPECT_LE(result.best.best_objective, 2.0);
}

TEST(IslandGa, SameSeedRunsAreBitIdentical) {
  const auto a = run(base_config(), 21);
  const auto b = run(base_config(), 21);
  EXPECT_EQ(a.best.best, b.best.best);
  EXPECT_EQ(a.best.best_objective, b.best.best_objective);
  EXPECT_EQ(a.island_objectives, b.island_objectives);
  EXPECT_EQ(a.total_generations, b.total_generations);
}

TEST(IslandGa, ReportsPerIslandObjectives) {
  const auto result = run(base_config(), 3);
  ASSERT_EQ(result.island_objectives.size(), 4u);
  for (const double obj : result.island_objectives) {
    EXPECT_GE(obj, 0.0);
    EXPECT_GE(obj, result.best.best_objective);
  }
}

TEST(IslandGa, GenerationAccountingSumsIslands) {
  IslandConfig cfg = base_config();
  cfg.ga.max_generations = 60;
  cfg.ga.stall_generations = 0;  // no early stop
  cfg.ga.target_objective = 0.0;
  const auto result = run(cfg, 11);
  // Each of the 4 islands evolves the full 60-generation budget.
  EXPECT_EQ(result.total_generations, 4u * 60u);
}

TEST(IslandGa, StopPredicateHaltsBetweenEpochs) {
  IslandConfig cfg = base_config();
  cfg.ga.max_generations = 1000;
  std::size_t calls = 0;
  const auto result = run(cfg, 5, 12, [&](std::size_t gen, double) {
    ++calls;
    return gen >= 40;  // allow two 20-generation epochs
  });
  EXPECT_GT(calls, 0u);
  EXPECT_EQ(result.total_generations, 4u * 40u);
}

TEST(IslandGa, SingleIslandDegeneratesToPlainGa) {
  IslandConfig cfg = base_config();
  cfg.islands = 1;
  const auto result = run(cfg, 9);
  ASSERT_EQ(result.island_objectives.size(), 1u);
  EXPECT_EQ(result.island_objectives[0], result.best.best_objective);
}

TEST(IslandGa, MigrationNotWorseThanIsolation) {
  // With micro-populations, migration should help (or at least not hurt)
  // on average. Compare summed best objectives across several seeds.
  double with_migration = 0.0;
  double without = 0.0;
  for (std::uint64_t seed = 100; seed < 108; ++seed) {
    IslandConfig mig = base_config();
    mig.ga.max_generations = 80;
    IslandConfig iso = mig;
    iso.migrants = 0;
    with_migration += run(mig, seed, 16).best.best_objective;
    without += run(iso, seed, 16).best.best_objective;
  }
  EXPECT_LE(with_migration, without + 2.0);
}

}  // namespace
}  // namespace gasched::ga
