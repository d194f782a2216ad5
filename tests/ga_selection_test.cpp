// Tests for selection operators: bias toward fitness, degeneracy handling,
// and the paper's roulette slot definition ς_i = F_i / Σ F_j.

#include "ga/selection.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <map>
#include <memory>
#include <numeric>
#include <vector>

namespace gasched::ga {
namespace {

std::map<std::size_t, int> histogram(const std::vector<std::size_t>& picks) {
  std::map<std::size_t, int> h;
  for (const auto p : picks) ++h[p];
  return h;
}

TEST(Roulette, ProportionalToFitness) {
  RouletteSelection sel;
  util::Rng rng(1);
  // Individual 1 has 3x the fitness of individual 0.
  const std::vector<double> fitness{1.0, 3.0};
  const auto picks = sel.select(fitness, 100000, rng);
  const auto h = histogram(picks);
  EXPECT_NEAR(static_cast<double>(h.at(1)) / 100000.0, 0.75, 0.01);
}

TEST(Roulette, ZeroFitnessFallsBackToUniform) {
  RouletteSelection sel;
  util::Rng rng(2);
  const std::vector<double> fitness{0.0, 0.0, 0.0, 0.0};
  const auto picks = sel.select(fitness, 40000, rng);
  const auto h = histogram(picks);
  for (const auto& [idx, count] : h) {
    EXPECT_NEAR(static_cast<double>(count) / 40000.0, 0.25, 0.02);
  }
}

TEST(Roulette, NegativeFitnessTreatedAsZero) {
  RouletteSelection sel;
  util::Rng rng(3);
  const std::vector<double> fitness{-5.0, 1.0};
  const auto picks = sel.select(fitness, 10000, rng);
  const auto h = histogram(picks);
  EXPECT_EQ(h.count(0), 0u);  // index 0 never selected
}

TEST(Roulette, EmptyPopulationThrows) {
  RouletteSelection sel;
  util::Rng rng(4);
  EXPECT_THROW(sel.select({}, 1, rng), std::invalid_argument);
}

TEST(Roulette, SingleIndividualAlwaysChosen) {
  RouletteSelection sel;
  util::Rng rng(5);
  const std::vector<double> fitness{0.7};
  for (const auto p : sel.select(fitness, 100, rng)) EXPECT_EQ(p, 0u);
}

TEST(Tournament, StrictlyPrefersFitterWithLargeK) {
  TournamentSelection sel(8);
  util::Rng rng(6);
  const std::vector<double> fitness{0.1, 0.2, 0.9, 0.3};
  const auto picks = sel.select(fitness, 10000, rng);
  const auto h = histogram(picks);
  // With k=8 over 4 individuals the best is almost always in the sample.
  EXPECT_GT(h.at(2), 9000);
}

TEST(Tournament, KOneIsUniform) {
  TournamentSelection sel(1);
  util::Rng rng(7);
  const std::vector<double> fitness{0.1, 100.0};
  const auto picks = sel.select(fitness, 40000, rng);
  const auto h = histogram(picks);
  EXPECT_NEAR(static_cast<double>(h.at(0)) / 40000.0, 0.5, 0.02);
}

TEST(Tournament, RejectsZeroK) {
  EXPECT_THROW(TournamentSelection(0), std::invalid_argument);
}

TEST(Rank, BiasDependsOnOrderNotMagnitude) {
  RankSelection sel;
  util::Rng rng(8);
  // Huge fitness gap — rank selection must not be swamped by it.
  const std::vector<double> fitness{1.0, 1e9};
  const auto picks = sel.select(fitness, 60000, rng);
  const auto h = histogram(picks);
  // Ranks 1 and 2 => probabilities 1/3 and 2/3.
  EXPECT_NEAR(static_cast<double>(h.at(1)) / 60000.0, 2.0 / 3.0, 0.02);
}

TEST(Sus, ProportionalAndLowVariance) {
  SusSelection sel;
  util::Rng rng(9);
  const std::vector<double> fitness{1.0, 1.0, 2.0};
  // A single SUS draw of 4 picks should deterministically include the
  // high-fitness individual at least twice w.h.p. — run many draws and
  // check overall proportions tightly.
  std::map<std::size_t, int> h;
  const int draws = 2000;
  for (int d = 0; d < draws; ++d) {
    for (const auto p : sel.select(fitness, 4, rng)) ++h[p];
  }
  const double total = 4.0 * draws;
  EXPECT_NEAR(h[2] / total, 0.5, 0.02);
  EXPECT_NEAR(h[0] / total, 0.25, 0.02);
}

TEST(Sus, ZeroTotalFallsBackToUniform) {
  SusSelection sel;
  util::Rng rng(10);
  const std::vector<double> fitness{0.0, 0.0};
  const auto picks = sel.select(fitness, 1000, rng);
  EXPECT_EQ(picks.size(), 1000u);
}

// ---- Draw identity against a std::upper_bound reference ----------------

/// The roulette and SUS draws written with std::upper_bound, plus counts
/// of the edge cases the draws hit.
struct ReferenceDraws {
  std::size_t on_prefix = 0;  ///< targets exactly equal to a prefix value
  std::size_t clamped = 0;    ///< upper_bound == end, clamped to n − 1

  static std::vector<double> prefix_of(const std::vector<double>& fitness) {
    std::vector<double> prefix;
    double acc = 0.0;
    for (const double f : fitness) {
      acc += std::max(f, 0.0);
      prefix.push_back(acc);
    }
    return prefix;
  }

  std::size_t locate(const std::vector<double>& prefix, double target) {
    const auto it = std::upper_bound(prefix.begin(), prefix.end(), target);
    on_prefix += std::binary_search(prefix.begin(), prefix.end(), target);
    clamped += it == prefix.end();
    return std::min(static_cast<std::size_t>(it - prefix.begin()),
                    prefix.size() - 1);
  }

  std::vector<std::size_t> roulette(const std::vector<double>& fitness,
                                    std::size_t count, util::Rng& rng) {
    const std::vector<double> prefix = prefix_of(fitness);
    const double total = prefix.back();
    std::vector<std::size_t> out;
    for (std::size_t i = 0; i < count; ++i) {
      out.push_back(total <= 0.0 ? rng.index(fitness.size())
                                 : locate(prefix, rng.uniform(0.0, total)));
    }
    return out;
  }

  std::vector<std::size_t> rank(const std::vector<double>& fitness,
                                std::size_t count, util::Rng& rng) {
    std::vector<std::size_t> order(fitness.size());
    std::iota(order.begin(), order.end(), std::size_t{0});
    std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
      return fitness[a] < fitness[b];
    });
    std::vector<double> weight(fitness.size());
    for (std::size_t r = 0; r < order.size(); ++r) {
      weight[order[r]] = static_cast<double>(r + 1);
    }
    return roulette(weight, count, rng);
  }

  std::vector<std::size_t> sus(const std::vector<double>& fitness,
                               std::size_t count, util::Rng& rng) {
    const std::vector<double> prefix = prefix_of(fitness);
    const double total = prefix.back();
    std::vector<std::size_t> out;
    if (total <= 0.0 || count == 0) {
      for (std::size_t i = 0; i < count; ++i) {
        out.push_back(rng.index(fitness.size()));
      }
      return out;
    }
    const double step = total / static_cast<double>(count);
    double pointer = rng.uniform(0.0, step);
    for (std::size_t i = 0; i < count; ++i) {
      out.push_back(locate(prefix, pointer));
      pointer += step;
    }
    return out;
  }
};

TEST(SelectionDraws, MatchUpperBoundReference) {
  // Subnormal fitness puts every target on the grid of multiples of the
  // smallest subnormal d, so targets land exactly on prefix values, on
  // the zero-fitness ties, and on the total (the last-index clamp).
  const double d = std::numeric_limits<double>::denorm_min();
  std::vector<std::vector<double>> populations = {
      {d, 0.0, d, d},
      {0.0, 0.0, d, 0.0, 2 * d, 0.0},
      {0.0, 0.5, 0.0, 0.0, 0.25, 0.25, 0.0},
      {-1.0, 0.3, 0.3, 0.0, 0.9},
      {0.0, 0.0, 0.0},
      {0.7},
  };
  util::Rng gen(40);
  for (const std::size_t n : {2, 5, 20, 33, 64}) {
    std::vector<double> f(n);
    for (double& v : f) v = gen.bernoulli(0.3) ? 0.0 : gen.uniform01();
    populations.push_back(f);
  }
  const RouletteSelection roulette;
  const RankSelection rank;
  const SusSelection sus;
  ReferenceDraws ref;
  std::size_t draws = 0;
  std::uint64_t seed = 400;
  for (const auto& fitness : populations) {
    for (const std::size_t count : {std::size_t{1}, std::size_t{3},
                                    fitness.size(), std::size_t{20}}) {
      for (int rep = 0; rep < 16; ++rep, ++seed) {
        util::Rng a(seed), b(seed);
        ASSERT_EQ(roulette.select(fitness, count, a),
                  ref.roulette(fitness, count, b));
        ASSERT_EQ(rank.select(fitness, count, a), ref.rank(fitness, count, b));
        ASSERT_EQ(sus.select(fitness, count, a), ref.sus(fitness, count, b));
        ASSERT_EQ(a.next_u64(), b.next_u64());
        draws += 3 * count;
      }
    }
  }
  EXPECT_GE(draws, 10000u);
  EXPECT_GT(ref.on_prefix, 100u);
  EXPECT_GT(ref.clamped, 10u);
}

class SelectionContract
    : public ::testing::TestWithParam<std::shared_ptr<SelectionOp>> {};

TEST_P(SelectionContract, ReturnsRequestedCountOfValidIndices) {
  auto sel = GetParam();
  util::Rng rng(11);
  const std::vector<double> fitness{0.2, 0.8, 0.5, 0.0, 0.9};
  const auto picks = sel->select(fitness, 333, rng);
  ASSERT_EQ(picks.size(), 333u);
  for (const auto p : picks) ASSERT_LT(p, fitness.size());
}

TEST_P(SelectionContract, NeverSelectsStrictlyWorstAlwaysOverBest) {
  // Weak sanity: across many draws, the best individual is picked at
  // least as often as the worst.
  auto sel = GetParam();
  util::Rng rng(12);
  const std::vector<double> fitness{0.01, 0.5, 0.99};
  const auto picks = sel->select(fitness, 30000, rng);
  const auto h = histogram(picks);
  const int best = h.count(2) ? h.at(2) : 0;
  const int worst = h.count(0) ? h.at(0) : 0;
  EXPECT_GE(best, worst);
}

INSTANTIATE_TEST_SUITE_P(
    AllOperators, SelectionContract,
    ::testing::Values(std::make_shared<RouletteSelection>(),
                      std::make_shared<TournamentSelection>(2),
                      std::make_shared<TournamentSelection>(4),
                      std::make_shared<RankSelection>(),
                      std::make_shared<SusSelection>()));

}  // namespace
}  // namespace gasched::ga
