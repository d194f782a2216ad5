// Tests for the deterministic RNG layer: reproducibility, stream
// independence, and distributional sanity of every sampler.

#include "util/rng.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <functional>
#include <limits>
#include <set>
#include <thread>
#include <vector>

namespace gasched::util {
namespace {

TEST(SplitMix64, KnownSequenceIsDeterministic) {
  std::uint64_t s1 = 42, s2 = 42;
  for (int i = 0; i < 16; ++i) {
    EXPECT_EQ(splitmix64_next(s1), splitmix64_next(s2));
  }
}

TEST(Xoshiro, SameSeedSameStream) {
  Xoshiro256StarStar a(123), b(123);
  for (int i = 0; i < 1000; ++i) EXPECT_EQ(a(), b());
}

TEST(Xoshiro, DifferentSeedsDiverge) {
  Xoshiro256StarStar a(1), b(2);
  int equal = 0;
  for (int i = 0; i < 1000; ++i) {
    if (a() == b()) ++equal;
  }
  EXPECT_LT(equal, 5);
}

TEST(Xoshiro, LongJumpChangesState) {
  Xoshiro256StarStar a(7), b(7);
  b.long_jump();
  int equal = 0;
  for (int i = 0; i < 1000; ++i) {
    if (a() == b()) ++equal;
  }
  EXPECT_LT(equal, 5);
}

TEST(Rng, Uniform01InRange) {
  Rng rng(1);
  for (int i = 0; i < 100000; ++i) {
    const double u = rng.uniform01();
    ASSERT_GE(u, 0.0);
    ASSERT_LT(u, 1.0);
  }
}

TEST(Rng, Uniform01MeanNearHalf) {
  Rng rng(2);
  double sum = 0.0;
  const int n = 200000;
  for (int i = 0; i < n; ++i) sum += rng.uniform01();
  EXPECT_NEAR(sum / n, 0.5, 0.01);
}

TEST(Rng, UniformRespectsBounds) {
  Rng rng(3);
  for (int i = 0; i < 10000; ++i) {
    const double v = rng.uniform(-5.0, 17.0);
    ASSERT_GE(v, -5.0);
    ASSERT_LT(v, 17.0);
  }
}

TEST(Rng, UniformIntCoversRangeUniformly) {
  Rng rng(4);
  std::vector<int> counts(10, 0);
  const int n = 100000;
  for (int i = 0; i < n; ++i) {
    const auto v = rng.uniform_int(0, 9);
    ASSERT_GE(v, 0);
    ASSERT_LE(v, 9);
    ++counts[static_cast<std::size_t>(v)];
  }
  for (const int c : counts) {
    EXPECT_NEAR(static_cast<double>(c) / n, 0.1, 0.01);
  }
}

TEST(Rng, UniformIntSingletonRange) {
  Rng rng(5);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(rng.uniform_int(7, 7), 7);
}

TEST(Rng, UniformIntNegativeRange) {
  Rng rng(6);
  for (int i = 0; i < 1000; ++i) {
    const auto v = rng.uniform_int(-10, -3);
    ASSERT_GE(v, -10);
    ASSERT_LE(v, -3);
  }
}

TEST(Rng, NormalMomentsMatch) {
  Rng rng(7);
  const int n = 200000;
  double sum = 0.0, sum_sq = 0.0;
  for (int i = 0; i < n; ++i) {
    const double v = rng.normal(10.0, 3.0);
    sum += v;
    sum_sq += v * v;
  }
  const double mean = sum / n;
  const double var = sum_sq / n - mean * mean;
  EXPECT_NEAR(mean, 10.0, 0.05);
  EXPECT_NEAR(var, 9.0, 0.2);
}

TEST(Rng, NormalTruncatedRespectsFloor) {
  Rng rng(8);
  for (int i = 0; i < 50000; ++i) {
    ASSERT_GE(rng.normal_truncated(5.0, 10.0, 0.5), 0.5);
  }
}

TEST(Rng, NormalTruncatedPathologicalFloorStillTerminates) {
  Rng rng(9);
  // Floor far above the mean: rejection would essentially never succeed.
  const double v = rng.normal_truncated(0.0, 1.0, 100.0);
  EXPECT_GE(v, 100.0);
}

TEST(Rng, ExponentialMeanMatches) {
  Rng rng(10);
  const int n = 200000;
  double sum = 0.0;
  for (int i = 0; i < n; ++i) sum += rng.exponential(4.0);
  EXPECT_NEAR(sum / n, 4.0, 0.1);
}

TEST(Rng, ExponentialIsPositive) {
  Rng rng(11);
  for (int i = 0; i < 10000; ++i) ASSERT_GT(rng.exponential(1.0), 0.0);
}

class PoissonMeanTest : public ::testing::TestWithParam<double> {};

TEST_P(PoissonMeanTest, MeanAndVarianceMatch) {
  const double mean = GetParam();
  Rng rng(static_cast<std::uint64_t>(mean * 1000) + 1);
  const int n = 100000;
  double sum = 0.0, sum_sq = 0.0;
  for (int i = 0; i < n; ++i) {
    const double v = static_cast<double>(rng.poisson(mean));
    sum += v;
    sum_sq += v * v;
  }
  const double m = sum / n;
  const double var = sum_sq / n - m * m;
  EXPECT_NEAR(m, mean, std::max(0.05, 0.03 * mean));
  // Poisson: variance == mean.
  EXPECT_NEAR(var, mean, std::max(0.2, 0.08 * mean));
}

INSTANTIATE_TEST_SUITE_P(SmallAndLargeMeans, PoissonMeanTest,
                         ::testing::Values(0.5, 2.0, 10.0, 29.0, 31.0, 100.0,
                                           400.0));

TEST(Rng, PoissonSamplingIsThreadSafe) {
  // Pool workers sample Poisson task sizes concurrently (figure sweeps,
  // federated runs). Large means take the PTRS path and its log-gamma
  // term, which must not touch shared state: every thread reproduces its
  // serial stream, and the thread-sanitize CI job runs this test.
  constexpr int kThreads = 4;
  constexpr int kDraws = 20000;
  auto draw = [](std::uint64_t seed, std::vector<std::uint64_t>& out) {
    Rng rng(seed);
    out.resize(kDraws);
    for (auto& v : out) v = rng.poisson(100.0 + static_cast<double>(seed));
  };
  std::vector<std::vector<std::uint64_t>> parallel(kThreads);
  std::vector<std::thread> workers;
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back(draw, 40 + t, std::ref(parallel[t]));
  }
  for (auto& w : workers) w.join();
  for (int t = 0; t < kThreads; ++t) {
    std::vector<std::uint64_t> serial;
    draw(40 + t, serial);
    EXPECT_EQ(parallel[t], serial) << "thread " << t;
  }
}

TEST(Rng, PoissonZeroMeanGivesZero) {
  Rng rng(12);
  EXPECT_EQ(rng.poisson(0.0), 0u);
  EXPECT_EQ(rng.poisson(-3.0), 0u);
}

TEST(Rng, SplitStreamsAreIndependent) {
  const Rng base(99);
  Rng a = base.split(0);
  Rng b = base.split(1);
  int equal = 0;
  for (int i = 0; i < 1000; ++i) {
    if (a.next_u64() == b.next_u64()) ++equal;
  }
  EXPECT_LT(equal, 5);
}

TEST(Rng, SplitIsDeterministic) {
  const Rng base(99);
  Rng a = base.split(17);
  Rng b = base.split(17);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next_u64(), b.next_u64());
}

TEST(Rng, IndexStaysInBounds) {
  Rng rng(13);
  for (int i = 0; i < 10000; ++i) ASSERT_LT(rng.index(17), 17u);
}

TEST(Rng, IndexMatchesTwoDivisionReference) {
  // index() computes the rejection limit only for draws that can be
  // rejected. The reference is the textbook form that computes it (one
  // division) before every draw. Outputs and generator state must agree
  // on every range, including 2^63 + 1, where the limit is 2^63 + 1 and
  // about half of all draws are rejected.
  const std::uint64_t max = ~std::uint64_t{0};
  const std::uint64_t two63 = std::uint64_t{1} << 63;
  const std::uint64_t ranges[] = {1, 2, 3, 20, 50, std::uint64_t{1} << 31,
                                  (std::uint64_t{1} << 32) + 1, two63,
                                  two63 + 1, max};
  for (const std::uint64_t range : ranges) {
    const std::uint64_t seed = 1000 + range % 977;
    Rng rng(seed);
    Xoshiro256StarStar gen(seed);
    std::size_t rejected = 0;
    for (int i = 0; i < 20000; ++i) {
      const std::uint64_t limit = max - max % range;
      std::uint64_t draw = gen();
      while (draw >= limit) {
        ++rejected;
        draw = gen();
      }
      ASSERT_EQ(rng.index(range), draw % range) << "range " << range;
    }
    EXPECT_EQ(rng.next_u64(), gen()) << "range " << range;
    if (range == two63 + 1) EXPECT_GT(rejected, 8000u);
  }
  // Full range (range == 0 inside uniform_int): the raw draw.
  Rng rng(77);
  Xoshiro256StarStar gen(77);
  for (int i = 0; i < 1000; ++i) {
    ASSERT_EQ(rng.uniform_int(std::numeric_limits<std::int64_t>::min(),
                              std::numeric_limits<std::int64_t>::max()),
              static_cast<std::int64_t>(gen()));
  }
  EXPECT_EQ(rng.next_u64(), gen());
}

TEST(Rng, BernoulliEdgeCases) {
  Rng rng(14);
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(rng.bernoulli(0.0));
    EXPECT_TRUE(rng.bernoulli(1.0));
    EXPECT_FALSE(rng.bernoulli(-1.0));
    EXPECT_TRUE(rng.bernoulli(2.0));
  }
}

TEST(Rng, BernoulliFrequencyMatches) {
  Rng rng(15);
  int hits = 0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) hits += rng.bernoulli(0.3) ? 1 : 0;
  EXPECT_NEAR(static_cast<double>(hits) / n, 0.3, 0.01);
}

TEST(Rng, ShuffleIsPermutation) {
  Rng rng(16);
  std::vector<int> v{1, 2, 3, 4, 5, 6, 7, 8, 9, 10};
  auto sorted = v;
  rng.shuffle(v);
  std::sort(v.begin(), v.end());
  EXPECT_EQ(v, sorted);
}

TEST(Rng, ShuffleActuallyShuffles) {
  Rng rng(17);
  std::vector<int> v(100);
  for (int i = 0; i < 100; ++i) v[static_cast<std::size_t>(i)] = i;
  const auto orig = v;
  rng.shuffle(v);
  EXPECT_NE(v, orig);  // astronomically unlikely to be identity
}

TEST(Rng, ShuffleHandlesDegenerateSizes) {
  Rng rng(18);
  std::vector<int> empty;
  rng.shuffle(empty);
  EXPECT_TRUE(empty.empty());
  std::vector<int> one{42};
  rng.shuffle(one);
  EXPECT_EQ(one, std::vector<int>{42});
}

}  // namespace
}  // namespace gasched::util
