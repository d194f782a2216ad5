// Differential tests of the earliest-finish kernel against the scans it
// replaced.
//
// `earliest_finish` skips the division for a processor when a cheap
// product certifies that it cannot beat the incumbent. Its contract is to
// pick exactly the index the plain scan picks, on every input. The plain
// scans of EF and OLB are kept below as the reference, and both rules are
// checked against them on random cases and on inputs built to sit on the
// certificate's edges: ties, special rates and loads, loads within a few
// ulps of the rejection threshold, and products that underflow or
// overflow.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <limits>
#include <vector>

#include "sched/extra_heuristics.hpp"
#include "sched/heuristics.hpp"
#include "util/rng.hpp"

namespace gasched::sched {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();
constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();

// EF's scan before the shared kernel.
sim::ProcId reference_ef(const sim::SystemView& view,
                         const std::vector<double>& pending, double size) {
  sim::ProcId best = 0;
  double best_time = kInf;
  for (std::size_t j = 0; j < view.size(); ++j) {
    const double rate = view.procs[j].rate;
    if (!(rate > 0.0)) continue;
    const double finish = (pending[j] + size) / rate;
    if (finish < best_time) {
      best_time = finish;
      best = static_cast<sim::ProcId>(j);
    }
  }
  return best;
}

// OLB's scan before the shared kernel.
sim::ProcId reference_olb(const sim::SystemView& view,
                          const std::vector<double>& pending) {
  sim::ProcId best = 0;
  double best_avail = kInf;
  for (std::size_t j = 0; j < view.size(); ++j) {
    const double rate = view.procs[j].rate;
    if (!(rate > 0.0)) continue;
    const double avail = pending[j] / rate;
    if (avail < best_avail) {
      best_avail = avail;
      best = static_cast<sim::ProcId>(j);
    }
  }
  return best;
}

struct Case {
  std::vector<double> rates;
  std::vector<double> loads;
  double size = 0.0;
};

sim::SystemView view_of(const Case& c) {
  sim::SystemView v;
  v.procs.resize(c.rates.size());
  for (std::size_t j = 0; j < c.rates.size(); ++j) {
    v.procs[j].id = static_cast<sim::ProcId>(j);
    v.procs[j].rate = c.rates[j];
    v.procs[j].pending_mflops = c.loads[j];
  }
  return v;
}

// Checks EF and OLB, each through the kernel and through its rule, and
// reading the loads both from the view and from a separate copy.
void expect_same_pick(const Case& c) {
  const sim::SystemView view = view_of(c);
  const sim::ProcId want_ef = reference_ef(view, c.loads, c.size);
  const sim::ProcId want_olb = reference_olb(view, c.loads);
  const workload::Task task{0, c.size, 0.0};
  util::Rng rng(1);
  EarliestFinishRule ef;
  OpportunisticLoadBalancingRule olb;
  for (const LoadView loads : {LoadView(view), LoadView(c.loads)}) {
    ASSERT_EQ(earliest_finish(view, loads, c.size), want_ef);
    ASSERT_EQ(ef.place(task, view, loads, rng), want_ef);
    ASSERT_EQ(earliest_finish(view, loads, 0.0), want_olb);
    ASSERT_EQ(olb.place(task, view, loads, rng), want_olb);
  }
}

double pick(util::Rng& rng, std::initializer_list<double> values) {
  const auto* it = values.begin() + rng.index(values.size());
  return *it;
}

// A magnitude spread over many binades, so products and quotients land in
// every range from subnormal to overflowing.
double wide(util::Rng& rng) {
  return std::ldexp(rng.uniform(1.0, 2.0),
                    static_cast<int>(rng.index(2101)) - 1074);
}

double random_rate(util::Rng& rng) {
  switch (rng.index(10)) {
    case 0:
      return pick(rng, {0.0, -0.0, -5.0, kNaN, kInf, -kInf,
                        std::numeric_limits<double>::denorm_min(),
                        std::numeric_limits<double>::min(),
                        std::numeric_limits<double>::max()});
    case 1:
      return wide(rng);
    default:
      return rng.uniform(1.0, 100.0);
  }
}

double random_load(util::Rng& rng) {
  switch (rng.index(10)) {
    case 0:
      return pick(rng, {0.0, -0.0, kNaN, kInf, -kInf, -3.0,
                        std::numeric_limits<double>::denorm_min(),
                        std::numeric_limits<double>::max()});
    case 1:
      return wide(rng);
    case 2:
      return -rng.uniform(0.0, 1000.0);
    default:
      return rng.uniform(0.0, 10000.0);
  }
}

// The reference incumbent over the first `n` entries, or +inf.
double incumbent(const Case& c, std::size_t n, double size) {
  double best = kInf;
  for (std::size_t j = 0; j < n; ++j) {
    if (!(c.rates[j] > 0.0)) continue;
    const double finish = (c.loads[j] + size) / c.rates[j];
    if (finish < best) best = finish;
  }
  return best;
}

// s stepped `ulps` representable doubles away from x.
double nudge(double x, int ulps) {
  for (; ulps > 0; --ulps) x = std::nextafter(x, kInf);
  for (; ulps < 0; ++ulps) x = std::nextafter(x, -kInf);
  return x;
}

TEST(EarliestFinishKernel, MatchesReferenceOnRandomCases) {
  util::Rng rng(20240611);
  for (int n = 0; n < 100000; ++n) {
    Case c;
    const std::size_t m = 1 + rng.index(40);
    for (std::size_t j = 0; j < m; ++j) {
      c.rates.push_back(random_rate(rng));
      c.loads.push_back(random_load(rng));
    }
    c.size = rng.index(8) == 0 ? pick(rng, {0.0, -0.0, kNaN, kInf, 1e-310})
                               : rng.uniform(1.0, 1000.0);
    expect_same_pick(c);
    if (HasFatalFailure()) return;
  }
}

// Every entry after the first is built against the incumbent of the
// entries before it: an exact or near tie, a start s_j within a few ulps
// of λ·P_j or of b·P_j, or a rate whose product underflows to a
// subnormal or zero or overflows. The size is 0 in half the cases, so
// the start equals the load exactly and the constructions are exact.
TEST(EarliestFinishKernel, MatchesReferenceAtTheRejectionThreshold) {
  util::Rng rng(7);
  for (int n = 0; n < 50000; ++n) {
    Case c;
    c.size = rng.index(2) == 0 ? 0.0 : rng.uniform(1.0, 1000.0);
    // A first incumbent anywhere from subnormal to huge, of either sign.
    c.rates.push_back(rng.index(4) == 0 ? wide(rng) : rng.uniform(1.0, 100.0));
    c.loads.push_back(rng.index(4) == 0 ? wide(rng) * pick(rng, {1.0, -1.0})
                                        : rng.uniform(0.0, 10000.0));
    const std::size_t m = 2 + rng.index(12);
    for (std::size_t j = 1; j < m; ++j) {
      const double b = incumbent(c, j, c.size);
      double rate = rng.index(3) == 0 ? wide(rng) : rng.uniform(1.0, 100.0);
      double start = 0.0;
      const int ulps = static_cast<int>(rng.index(9)) - 4;
      switch (rng.index(5)) {
        case 0:  // λ·P_j, as the kernel computes it
          start = nudge(b * (1.0 + 0x1p-50) * rate, ulps);
          break;
        case 1:  // b·P_j: the division itself decides
          start = nudge(b * rate, ulps);
          break;
        case 2: {  // a tie scaled by a power of two
          const int k = static_cast<int>(rng.index(21)) - 10;
          rate = std::ldexp(c.rates[0], k);
          start = std::ldexp(c.loads[0] + c.size, k);
          break;
        }
        case 3: {  // λ·P_j subnormal or zero, start at or just above it
          const int e = std::isfinite(b) && b != 0.0 ? std::ilogb(b) : 0;
          rate = std::ldexp(rng.uniform(0.5, 2e16), -1074 - e);
          start = nudge(std::fabs(b * (1.0 + 0x1p-50) * rate),
                        static_cast<int>(rng.index(3)));
          break;
        }
        default:  // λ·P_j overflows
          rate = std::numeric_limits<double>::max() * rng.uniform(0.1, 1.0);
          start = pick(rng, {kInf, std::numeric_limits<double>::max(),
                             b * rate});
          break;
      }
      c.rates.push_back(rate);
      c.loads.push_back(start - c.size);
    }
    expect_same_pick(c);
    if (HasFatalFailure()) return;
  }
}

TEST(EarliestFinishKernel, EqualFinishTimesPickTheFirstIndex) {
  expect_same_pick({{10.0, 20.0, 40.0, 20.0}, {100.0, 200.0, 400.0, 200.0},
                    0.0});
  const sim::SystemView view =
      view_of({{10.0, 20.0, 40.0}, {100.0, 300.0, 700.0}, 100.0});
  EXPECT_EQ(earliest_finish(view, LoadView(view), 100.0), 0);
}

TEST(EarliestFinishKernel, SkipsRatesThatAreNotPositive) {
  expect_same_pick({{0.0, -1.0, kNaN, 5.0, kInf}, {0.0, 0.0, 0.0, 50.0, 50.0},
                    10.0});
  expect_same_pick({{kInf, 5.0}, {kInf, 50.0}, 0.0});
}

TEST(EarliestFinishKernel, NoPositiveRateGivesZero) {
  const Case c{{0.0, -2.0, kNaN, -0.0}, {1.0, 2.0, 3.0, 4.0}, 7.0};
  const sim::SystemView view = view_of(c);
  EXPECT_EQ(earliest_finish(view, LoadView(view), 7.0), 0);
  EXPECT_EQ(earliest_finish(view, LoadView(view), 0.0), 0);
  expect_same_pick(c);
  const sim::SystemView empty;
  EXPECT_EQ(earliest_finish(empty, LoadView(empty), 1.0), 0);
}

TEST(EarliestFinishKernel, SpecialLoads) {
  expect_same_pick({{10.0, 10.0, 10.0}, {kNaN, kInf, -0.0}, 0.0});
  expect_same_pick({{10.0, 10.0, 10.0}, {-0.0, 0.0, -0.0}, 0.0});
  expect_same_pick({{10.0, 10.0}, {0.0, -0.0}, 0.0});
  expect_same_pick({{10.0, 10.0, 10.0}, {kNaN, 5.0, kNaN}, 1.0});
  expect_same_pick({{1.0, 1.0}, {kInf, kInf}, 1.0});
}

// An incumbent b = 1e-300 and a rate of 1e-100: λ·P underflows to zero,
// but 0 / 1e-100 = 0 beats b, so a zero product must not reject.
TEST(EarliestFinishKernel, UnderflowingProductDoesNotReject) {
  const Case c{{1e10, 1e-100}, {1e-290, 0.0}, 0.0};
  const sim::SystemView view = view_of(c);
  EXPECT_EQ(earliest_finish(view, LoadView(view), 0.0), 1);
  expect_same_pick(c);
}

// A negative incumbent: λ = b·(1 + 2⁻⁵⁰) lies below b, so λ·P is not a
// bound on b·P. The product is negative, below DBL_MIN, and rejects
// nothing.
TEST(EarliestFinishKernel, NegativeIncumbentDoesNotReject) {
  const double b = -1.0;
  const double lambda = b * (1.0 + 0x1p-50);
  const Case c{{1.0, 1.0}, {b, nudge(lambda, 1)}, 0.0};
  ASSERT_LT(c.loads[1], b);
  const sim::SystemView view = view_of(c);
  EXPECT_EQ(earliest_finish(view, LoadView(view), 0.0), 1);
  expect_same_pick(c);
}

}  // namespace
}  // namespace gasched::sched
