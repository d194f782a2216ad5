// CalendarQueue vs a std::priority_queue reference: randomized
// insert/pop sequences must dequeue in the exact (time, seq)
// order — including FIFO order among equal timestamps, the tie-break the
// engine's determinism contract (and every golden CSV) depends on.

#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <queue>
#include <vector>

#include "sim/event_queue.hpp"
#include "util/rng.hpp"

namespace gasched::sim {
namespace {

struct RefEvent {
  SimTime time = 0.0;
  std::uint64_t seq = 0;  // global push counter (mirrors the queue's)
  int tag = 0;
  bool operator>(const RefEvent& o) const {
    if (time != o.time) return time > o.time;
    return seq > o.seq;
  }
};

using RefQueue =
    std::priority_queue<RefEvent, std::vector<RefEvent>, std::greater<>>;

TEST(CalendarQueueTest, OrdersByTimeThenPushOrder) {
  CalendarQueue<int> q;
  q.push(5.0, 1);
  q.push(1.0, 2);
  q.push(5.0, 3);  // same time as tag 1: must dequeue after it
  q.push(0.5, 4);
  ASSERT_EQ(q.size(), 4u);
  EXPECT_EQ(q.top(), 4);
  q.pop();
  EXPECT_EQ(q.top(), 2);
  q.pop();
  EXPECT_EQ(q.top(), 1);
  EXPECT_DOUBLE_EQ(q.top_time(), 5.0);
  q.pop();
  EXPECT_EQ(q.top(), 3);
  q.pop();
  EXPECT_TRUE(q.empty());
}

TEST(CalendarQueueTest, EqualTimestampFloodStaysFifo) {
  // A million-at-t=0 style burst (scaled down): all equal keys must come
  // back in exact push order via the tail-append fast path.
  CalendarQueue<int> q;
  for (int i = 0; i < 5000; ++i) q.push(0.0, i);
  for (int i = 0; i < 5000; ++i) {
    ASSERT_EQ(q.top(), i);
    q.pop();
  }
  EXPECT_TRUE(q.empty());
}

TEST(CalendarQueueTest, RejectsNonFiniteAndNegativeTimes) {
  CalendarQueue<int> q;
  EXPECT_THROW(q.push(-1.0, 0), std::invalid_argument);
  EXPECT_THROW(q.push(std::numeric_limits<double>::quiet_NaN(), 0),
               std::invalid_argument);
  EXPECT_THROW(q.push(std::numeric_limits<double>::infinity(), 0),
               std::invalid_argument);
}

// One randomized scenario: interleaved pushes (several time regimes to
// exercise bucket resizing) and pops, mirrored against the reference heap.
void run_mixed_scenario(std::uint64_t seed, std::size_t ops,
                        double time_scale, double equal_time_prob) {
  util::Rng rng(seed);
  CalendarQueue<int> q;
  RefQueue ref;
  std::uint64_t next_seq = 0;
  double clock = 0.0;  // pops only move forward, like a simulation
  int tag = 0;

  for (std::size_t op = 0; op < ops; ++op) {
    if (rng.uniform01() < 0.5 || q.empty()) {
      // Push at or after the current clock (simulation discipline).
      double t = clock;
      if (rng.uniform01() >= equal_time_prob) {
        t += rng.uniform(0.0, time_scale);
      }
      q.push(t, tag);
      ref.push(RefEvent{t, next_seq, tag});
      ++next_seq;
      ++tag;
    } else {
      // Pop and compare against the reference.
      ASSERT_FALSE(ref.empty());
      const RefEvent expect = ref.top();
      ref.pop();
      ASSERT_DOUBLE_EQ(q.top_time(), expect.time);
      ASSERT_EQ(q.top(), expect.tag) << "tie-break order diverged";
      q.pop();
      clock = expect.time;
    }
  }
  // Drain: remaining events must come out in exact reference order.
  while (!q.empty()) {
    ASSERT_FALSE(ref.empty());
    ASSERT_EQ(q.top(), ref.top().tag);
    ASSERT_DOUBLE_EQ(q.top_time(), ref.top().time);
    q.pop();
    ref.pop();
  }
  EXPECT_TRUE(ref.empty());
}

TEST(CalendarQueuePropertyTest, MatchesHeapOnSpreadTimes) {
  run_mixed_scenario(/*seed=*/1, /*ops=*/20000, /*time_scale=*/100.0,
                     /*equal_time_prob=*/0.1);
}

TEST(CalendarQueuePropertyTest, MatchesHeapOnDenseEqualTimes) {
  // Half the pushes reuse the exact current clock value: heavy tie-break
  // traffic through the append fast path and the sorted-insert slow path.
  run_mixed_scenario(/*seed=*/2, /*ops=*/20000, /*time_scale=*/1.0,
                     /*equal_time_prob=*/0.5);
}

TEST(CalendarQueuePropertyTest, MatchesHeapOnTinyGaps) {
  run_mixed_scenario(/*seed=*/3, /*ops=*/20000, /*time_scale=*/1e-6,
                     /*equal_time_prob=*/0.25);
}

TEST(CalendarQueuePropertyTest, MatchesHeapAcrossManySeeds) {
  for (std::uint64_t seed = 10; seed < 30; ++seed) {
    run_mixed_scenario(seed, /*ops=*/2000,
                       /*time_scale=*/(seed % 2 ? 1e3 : 1e-2),
                       /*equal_time_prob=*/0.2);
  }
}

TEST(CalendarQueuePropertyTest, GrowShrinkCycleKeepsOrder) {
  // Force several grow/shrink rebuilds: fill far past the resize
  // threshold, drain most, refill, and verify order throughout.
  util::Rng rng(99);
  CalendarQueue<int> q;
  RefQueue ref;
  std::uint64_t seq = 0;
  auto push_burst = [&](std::size_t n, double lo, double hi) {
    for (std::size_t i = 0; i < n; ++i) {
      const double t = rng.uniform(lo, hi);
      q.push(t, static_cast<int>(seq));
      ref.push(RefEvent{t, seq, static_cast<int>(seq)});
      ++seq;
    }
  };
  auto drain = [&](std::size_t n) {
    for (std::size_t i = 0; i < n; ++i) {
      ASSERT_EQ(q.top(), ref.top().tag);
      q.pop();
      ref.pop();
    }
  };
  push_burst(10000, 0.0, 1e4);
  drain(9800);
  push_burst(5000, 1e4, 2e4);
  drain(5150);
  push_burst(200, 2e4, 2e4);  // equal-time tail
  drain(q.size());
  EXPECT_TRUE(ref.empty());
}

}  // namespace
}  // namespace gasched::sim
