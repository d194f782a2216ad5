// Tests for permutation crossover operators. The central property: any
// child of two permutations of the same gene set is itself a permutation
// of that gene set (exercised across operators, sizes, and seeds).

#include "ga/crossover.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <memory>
#include <stdexcept>
#include <tuple>
#include <vector>

namespace gasched::ga {
namespace {

Chromosome iota_chromosome(std::size_t n) {
  Chromosome c(n);
  for (std::size_t i = 0; i < n; ++i) c[i] = static_cast<Gene>(i);
  return c;
}

/// Chromosome with negative "delimiter" genes mixed in, mirroring the
/// scheduling encoding.
Chromosome schedule_like(std::size_t tasks, std::size_t delims,
                         util::Rng& rng) {
  Chromosome c;
  for (std::size_t i = 0; i < tasks; ++i) c.push_back(static_cast<Gene>(i));
  for (std::size_t k = 0; k < delims; ++k) {
    c.push_back(-static_cast<Gene>(k) - 1);
  }
  rng.shuffle(c);
  return c;
}

using OpFactory = std::shared_ptr<CrossoverOp>;

class CrossoverContract
    : public ::testing::TestWithParam<std::tuple<OpFactory, std::size_t>> {};

TEST_P(CrossoverContract, ChildrenArePermutationsOfParents) {
  const auto& [op, n] = GetParam();
  util::Rng rng(1234 + n);
  for (int trial = 0; trial < 200; ++trial) {
    Chromosome a = schedule_like(n, n / 4 + 1, rng);
    Chromosome b = a;
    rng.shuffle(b);
    const auto [c1, c2] = op->apply(a, b, rng);
    ASSERT_EQ(c1.size(), a.size());
    ASSERT_EQ(c2.size(), a.size());
    ASSERT_TRUE(is_permutation_of_distinct(c1)) << op->name();
    ASSERT_TRUE(is_permutation_of_distinct(c2)) << op->name();
    ASSERT_TRUE(same_gene_set(c1, a)) << op->name();
    ASSERT_TRUE(same_gene_set(c2, a)) << op->name();
  }
}

TEST_P(CrossoverContract, IdenticalParentsYieldIdenticalChildren) {
  const auto& [op, n] = GetParam();
  util::Rng rng(77 + n);
  const Chromosome a = schedule_like(n, 2, rng);
  const auto [c1, c2] = op->apply(a, a, rng);
  EXPECT_EQ(c1, a);
  EXPECT_EQ(c2, a);
}

INSTANTIATE_TEST_SUITE_P(
    AllOperatorsAndSizes, CrossoverContract,
    ::testing::Combine(
        ::testing::Values(std::make_shared<CycleCrossover>(),
                          std::make_shared<PmxCrossover>(),
                          std::make_shared<OrderCrossover>(),
                          std::make_shared<PositionCrossover>()),
        ::testing::Values(std::size_t{2}, std::size_t{3}, std::size_t{8},
                          std::size_t{40}, std::size_t{150})));

TEST(CycleCrossover, PreservesPositionOwnership) {
  // CX property: every child position holds the gene one of the parents
  // had at that position.
  CycleCrossover cx;
  util::Rng rng(5);
  for (int trial = 0; trial < 100; ++trial) {
    Chromosome a = iota_chromosome(20);
    Chromosome b = a;
    rng.shuffle(a);
    rng.shuffle(b);
    const auto [c1, c2] = cx.apply(a, b, rng);
    for (std::size_t i = 0; i < a.size(); ++i) {
      EXPECT_TRUE(c1[i] == a[i] || c1[i] == b[i]);
      EXPECT_TRUE(c2[i] == a[i] || c2[i] == b[i]);
    }
  }
}

TEST(CycleCrossover, ChildrenAreComplementary) {
  // Where c1 takes from a, c2 takes from b (and vice versa).
  CycleCrossover cx;
  util::Rng rng(6);
  Chromosome a = iota_chromosome(12);
  Chromosome b = a;
  rng.shuffle(b);
  const auto [c1, c2] = cx.apply(a, b, rng);
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (c1[i] == a[i]) {
      EXPECT_EQ(c2[i], b[i]);
    } else {
      EXPECT_EQ(c1[i], b[i]);
      EXPECT_EQ(c2[i], a[i]);
    }
  }
}

TEST(CycleCrossover, MismatchedGeneSetsThrow) {
  CycleCrossover cx;
  util::Rng rng(7);
  const Chromosome a{0, 1, 2};
  const Chromosome b{0, 1, 99};
  EXPECT_THROW(cx.apply(a, b, rng), std::invalid_argument);
}

/// Textbook cycle crossover: builds a full position index over `a` and
/// walks every cycle from every unassigned position in ascending order,
/// alternating ownership — the reference the library's walk over the
/// differing positions only must match bit for bit.
void reference_cycle_crossover(const Chromosome& a, const Chromosome& b,
                               Chromosome& c1, Chromosome& c2,
                               util::Rng& rng) {
  if (a.size() != b.size() || a.empty()) {
    throw std::invalid_argument("crossover: parents must be equal non-empty");
  }
  const std::size_t n = a.size();
  PositionIndex pos_a;
  pos_a.build(a);
  c1.resize(n);
  c2.resize(n);
  std::vector<std::uint8_t> assigned(n, 0);
  bool from_a = rng.bernoulli(0.5);
  for (std::size_t start = 0; start < n; ++start) {
    if (assigned[start]) continue;
    std::size_t i = start;
    do {
      assigned[i] = 1;
      c1[i] = from_a ? a[i] : b[i];
      c2[i] = from_a ? b[i] : a[i];
      const std::size_t p = pos_a.find(b[i]);
      if (p == PositionIndex::npos) {
        throw std::invalid_argument("CycleCrossover: parents differ in genes");
      }
      i = p;
    } while (i != start);
    from_a = !from_a;
  }
}

/// `a` with `swaps` random position pairs exchanged: the parents then
/// differ in at most 2·swaps positions (the encoding-shaped gene set of
/// schedule_like(): task slots plus distinct negative delimiters).
Chromosome perturbed(const Chromosome& a, std::size_t swaps, util::Rng& rng) {
  Chromosome b = a;
  for (std::size_t s = 0; s < swaps; ++s) {
    std::swap(b[rng.index(b.size())], b[rng.index(b.size())]);
  }
  return b;
}

std::size_t differing_positions(const Chromosome& a, const Chromosome& b) {
  std::size_t d = 0;
  for (std::size_t i = 0; i < a.size(); ++i) d += a[i] != b[i];
  return d;
}

TEST(CycleCrossover, MatchesTextbookWalkForEveryDifferenceSize) {
  CycleCrossover cx;
  util::Rng gen(11);
  std::size_t coins[2] = {0, 0};
  std::size_t max_d = 0;
  for (const std::size_t n : {std::size_t{2}, std::size_t{9},
                              std::size_t{60}, std::size_t{249}}) {
    for (int trial = 0; trial < 60; ++trial) {
      const Chromosome a = schedule_like(n - n / 4, n / 4, gen);
      // D of size 0, 2, small, about n/2 (a few swaps per 4 positions),
      // and n (a derangement: a rotated by one).
      std::vector<Chromosome> partners = {
          a, perturbed(a, 1, gen), perturbed(a, 3, gen),
          perturbed(a, n / 4, gen), a};
      std::rotate(partners.back().begin(), partners.back().begin() + 1,
                  partners.back().end());
      for (const Chromosome& b : partners) {
        max_d = std::max(max_d, differing_positions(a, b));
        for (const bool swap_parents : {false, true}) {
          const Chromosome& p1 = swap_parents ? b : a;
          const Chromosome& p2 = swap_parents ? a : b;
          util::Rng r_lib(1000 + trial), r_ref(1000 + trial);
          Chromosome l1{7}, l2, f1, f2;  // stale contents must not leak
          cx.apply_into(p1, p2, l1, l2, r_lib);
          reference_cycle_crossover(p1, p2, f1, f2, r_ref);
          ASSERT_EQ(l1, f1) << "n=" << n;
          ASSERT_EQ(l2, f2) << "n=" << n;
          ASSERT_EQ(r_lib.next_u64(), r_ref.next_u64());
          util::Rng r_coin(1000 + trial);
          ++coins[r_coin.bernoulli(0.5) ? 1 : 0];
        }
      }
      ASSERT_EQ(differing_positions(a, partners.back()), n);
    }
  }
  EXPECT_GT(coins[0], 0u);  // both leading parents exercised
  EXPECT_GT(coins[1], 0u);
  EXPECT_GT(max_d, 32u);    // the indexed (large-D) lookup path ran
}

TEST(CycleCrossover, ForeignGeneThrowsLikeTextbookWalk) {
  // One foreign gene makes D a single position: both walks throw after
  // drawing the same single coin.
  CycleCrossover cx;
  util::Rng gen(12);
  for (const std::size_t n : {std::size_t{3}, std::size_t{40},
                              std::size_t{200}}) {
    const Chromosome a = schedule_like(n - 2, 2, gen);
    for (const std::size_t swaps : {std::size_t{0}, std::size_t{1}, n}) {
      Chromosome b = perturbed(a, swaps, gen);
      b[gen.index(n)] = 100000;
      util::Rng r_lib(5), r_ref(5);
      Chromosome l1, l2, f1, f2;
      EXPECT_THROW(cx.apply_into(a, b, l1, l2, r_lib), std::invalid_argument);
      EXPECT_THROW(reference_cycle_crossover(a, b, f1, f2, r_ref),
                   std::invalid_argument);
      EXPECT_EQ(r_lib.next_u64(), r_ref.next_u64());
    }
  }
}

TEST(Crossover, UnequalLengthsThrow) {
  CycleCrossover cx;
  PmxCrossover pmx;
  util::Rng rng(8);
  const Chromosome a{0, 1, 2};
  const Chromosome b{0, 1};
  EXPECT_THROW(cx.apply(a, b, rng), std::invalid_argument);
  EXPECT_THROW(pmx.apply(a, b, rng), std::invalid_argument);
}

TEST(Crossover, EmptyParentsThrow) {
  OrderCrossover ox;
  util::Rng rng(9);
  EXPECT_THROW(ox.apply({}, {}, rng), std::invalid_argument);
}

TEST(Crossover, ProducesNovelOffspringOnDifferentParents) {
  // Statistical: across many trials, at least some children must differ
  // from both parents (operators genuinely recombine).
  util::Rng rng(10);
  for (const OpFactory& op :
       {OpFactory(std::make_shared<CycleCrossover>()),
        OpFactory(std::make_shared<PmxCrossover>()),
        OpFactory(std::make_shared<OrderCrossover>()),
        OpFactory(std::make_shared<PositionCrossover>())}) {
    int novel = 0;
    for (int trial = 0; trial < 50; ++trial) {
      Chromosome a = iota_chromosome(30);
      Chromosome b = a;
      rng.shuffle(a);
      rng.shuffle(b);
      const auto [c1, c2] = op->apply(a, b, rng);
      if (c1 != a && c1 != b) ++novel;
      if (c2 != a && c2 != b) ++novel;
    }
    EXPECT_GT(novel, 10) << op->name();
  }
}

}  // namespace
}  // namespace gasched::ga
