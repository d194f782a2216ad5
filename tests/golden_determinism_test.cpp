// Golden regression tests: exact simulation outputs for pinned seeds.
//
// The library promises bit-reproducibility — xoshiro256** substreams per
// replication, portable inverse-CDF samplers, no dependence on thread
// scheduling or the standard library's distribution implementations.
// These tests pin that contract: if any change alters an RNG stream, the
// event order, or a scheduler's arithmetic, the exact doubles below
// change and the diff shows up here instead of silently shifting every
// benchmark.
//
// When a change *intentionally* alters results (e.g. a new RNG draw in a
// scheduler), regenerate the constants with the printing snippet in this
// file's history and say so in the commit message.

#include <gtest/gtest.h>

#include "exp/runner.hpp"

namespace gasched::exp {
namespace {

Scenario golden_scenario() {
  Scenario s;
  s.name = "golden";
  s.cluster = paper_cluster(10.0, 8);
  s.workload.dist = "uniform";
  s.workload.param_a = 10.0;
  s.workload.param_b = 1000.0;
  s.workload.count = 200;
  s.seed = 987654321;
  s.replications = 2;
  return s;
}

SchedulerParams golden_opts() {
  SchedulerParams o;
  o.set("batch_size", 50);
  o.set("max_generations", 40);
  o.set("population", 12);
  return o;
}

struct Golden {
  std::string kind;
  double makespan[2];
  double response[2];
};

// Captured 2026-06-12 at the commit introducing this test.
const Golden kGolden[] = {
    {"PN",
     {533.38076700184502, 609.55880600455134},
     {265.24668627213669, 297.66190815501085}},
    {"EF",
     {595.92641545973072, 766.75149709238076},
     {258.31307270289938, 305.37391944866107}},
    {"SA",
     {519.23513123779287, 597.24464984579515},
     {264.42731134918745, 295.45747820857338}},
    {"TS",
     {520.6251024967529, 586.02649005207411},
     {264.14630247102627, 299.16590101334418}},
    {"ACO",
     {533.35321338274696, 610.99617088239199},
     {264.39984671674409, 292.48581488777694}},
    {"RR",
     {1345.6660362725179, 1151.838229634337},
     {325.95767505375056, 340.01369278259932}},
};

class GoldenTest : public ::testing::TestWithParam<Golden> {};

TEST_P(GoldenTest, ExactMakespanAndResponse) {
  const auto& g = GetParam();
  const auto runs = run_replications(golden_scenario(), g.kind, golden_opts());
  ASSERT_EQ(runs.size(), 2u);
  for (std::size_t r = 0; r < 2; ++r) {
    EXPECT_DOUBLE_EQ(runs[r].makespan, g.makespan[r])
        << g.kind << " rep " << r;
    EXPECT_DOUBLE_EQ(runs[r].mean_response_time, g.response[r])
        << g.kind << " rep " << r;
    EXPECT_EQ(runs[r].tasks_completed, 200u);
  }
}

TEST_P(GoldenTest, ParallelExecutionMatchesGolden) {
  // The same constants must hold regardless of the thread pool: parallel
  // replications derive their streams from (seed, rep), never from
  // scheduling order.
  const auto& g = GetParam();
  const auto runs = run_replications(golden_scenario(), g.kind, golden_opts(),
                                     /*parallel=*/true);
  for (std::size_t r = 0; r < 2; ++r) {
    EXPECT_DOUBLE_EQ(runs[r].makespan, g.makespan[r]);
  }
}

INSTANTIATE_TEST_SUITE_P(PinnedSeeds, GoldenTest,
                         ::testing::ValuesIn(kGolden),
                         [](const ::testing::TestParamInfo<Golden>& info) {
                           return info.param.kind;
                         });

}  // namespace
}  // namespace gasched::exp
