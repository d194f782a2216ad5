// Exact-bits pins of the load-reading immediate and batch heuristics.
//
// EF, MM, MX, Duplex and OLB share one earliest-finish scan; LL, KPB and
// MET read the same load view. A change in which processor a scan picks,
// or in the loads it reads after earlier placements of the same
// invocation, moves the makespan, the mean response time or the
// per-processor task counts pinned here. Two runs:
//   - 1000 processors under streaming arrivals (one-task invocations,
//     wide scans, loads that differ everywhere);
//   - 50 processors with every task present at t = 0 and outages, so
//     batches of 200 are placed at once and requeued work is rescheduled.
//
// The constants were captured from the per-heuristic scans that predate
// the shared kernel; a change that alters them changed the schedules, not
// just their speed. None of these heuristics touches the GA's numeric
// mode, so the pins hold in every build type and numeric mode.

#include <gtest/gtest.h>

#include <cstdint>
#include <string>

#include "exp/registry.hpp"
#include "exp/scenario.hpp"
#include "sim/engine.hpp"
#include "sim/failure.hpp"
#include "workload/generator.hpp"

namespace gasched::sched {
namespace {

struct Pinned {
  double makespan;
  double mean_response;
  std::uint64_t counts_digest;  // FNV-1a of the per-processor task counts
};

std::uint64_t counts_digest(const sim::SimulationResult& r) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const auto& p : r.per_proc) {
    h ^= static_cast<std::uint64_t>(p.tasks);
    h *= 0x100000001b3ULL;
  }
  return h;
}

void expect_pinned(const sim::SimulationResult& r, std::size_t tasks,
                   const Pinned& want) {
  EXPECT_EQ(r.tasks_completed, tasks);
  EXPECT_EQ(r.makespan, want.makespan);
  EXPECT_EQ(r.mean_response_time, want.mean_response);
  EXPECT_EQ(counts_digest(r), want.counts_digest);
}

sim::SimulationResult run(const std::string& scheduler, std::size_t procs,
                          std::size_t tasks, bool all_at_start,
                          const sim::FailureConfig* failures) {
  util::Rng cluster_rng(17);
  const sim::Cluster cluster =
      sim::build_cluster(exp::paper_cluster(1.0, procs), cluster_rng);
  workload::UniformSizes sizes(100.0, 1000.0);
  workload::ArrivalConfig arrivals;
  arrivals.all_at_start = all_at_start;
  arrivals.mean_interarrival = 0.0025;
  util::Rng workload_rng(29);
  const workload::Workload w =
      workload::generate(sizes, tasks, workload_rng, arrivals);
  sim::EngineConfig ecfg;
  sim::FailureTrace trace;
  if (failures != nullptr) {
    util::Rng failure_rng(31);
    trace = sim::FailureTrace(*failures, procs, failure_rng);
    ecfg.failures = &trace;
  }
  const auto policy = exp::SchedulerRegistry::instance().create(scheduler, {});
  return sim::simulate(cluster, w, *policy, util::Rng(37), ecfg);
}

// 3000 tasks arriving at 400/s on 1000 paper processors: queues build,
// but every invocation places one task, so MM, MX and Duplex match EF.
constexpr std::size_t kStreamProcs = 1000;
constexpr std::size_t kStreamTasks = 3000;

sim::SimulationResult run_streaming(const std::string& scheduler) {
  return run(scheduler, kStreamProcs, kStreamTasks, false, nullptr);
}

// 1000 tasks at t = 0 on 50 paper processors with outages.
constexpr std::size_t kBatchProcs = 50;
constexpr std::size_t kBatchTasks = 1000;

sim::SimulationResult run_batch_with_failures(const std::string& scheduler) {
  sim::FailureConfig f;
  f.mean_uptime = 60.0;
  f.mean_downtime = 15.0;
  f.horizon = 1e5;
  const auto r = run(scheduler, kBatchProcs, kBatchTasks, true, &f);
  EXPECT_GT(r.tasks_requeued, 0u);
  return r;
}

TEST(HeuristicsPin, StreamingEF) {
  expect_pinned(run_streaming("EF"), kStreamTasks,
                {47.349984282665702, 17.713759103041959,
                 18219134311870002653ULL});
}
TEST(HeuristicsPin, StreamingMM) {
  expect_pinned(run_streaming("MM"), kStreamTasks,
                {47.349984282665702, 17.713759103041959,
                 18219134311870002653ULL});
}
TEST(HeuristicsPin, StreamingMX) {
  expect_pinned(run_streaming("MX"), kStreamTasks,
                {47.349984282665702, 17.713759103041959,
                 18219134311870002653ULL});
}
TEST(HeuristicsPin, StreamingOLB) {
  expect_pinned(run_streaming("OLB"), kStreamTasks,
                {100.3060215044318, 19.768483433225999,
                 4927918311423773255ULL});
}
TEST(HeuristicsPin, StreamingDuplex) {
  expect_pinned(run_streaming("DUP"), kStreamTasks,
                {47.349984282665702, 17.713759103041959,
                 18219134311870002653ULL});
}
TEST(HeuristicsPin, StreamingLL) {
  expect_pinned(run_streaming("LL"), kStreamTasks,
                {187.97197000775014, 25.009639266774855,
                 16222662600642123721ULL});
}
TEST(HeuristicsPin, StreamingKPB) {
  expect_pinned(run_streaming("KPB"), kStreamTasks,
                {153.53005018950665, 53.3696538336687,
                 8255308800710910043ULL});
}
TEST(HeuristicsPin, StreamingMET) {
  expect_pinned(run_streaming("MET"), kStreamTasks,
                {19485.359012501289, 9758.8636423145908,
                 2261774964648433629ULL});
}

TEST(HeuristicsPin, BatchWithFailuresEF) {
  expect_pinned(run_batch_with_failures("EF"), kBatchTasks,
                {390.98725543817307, 158.15586405316259,
                 17366856255588526365ULL});
}
TEST(HeuristicsPin, BatchWithFailuresMM) {
  expect_pinned(run_batch_with_failures("MM"), kBatchTasks,
                {396.75695065020039, 138.18376876974841,
                 8479723301971592957ULL});
}
TEST(HeuristicsPin, BatchWithFailuresMX) {
  expect_pinned(run_batch_with_failures("MX"), kBatchTasks,
                {390.55338578303582, 188.17879908097544,
                 14479003199436675119ULL});
}
TEST(HeuristicsPin, BatchWithFailuresOLB) {
  expect_pinned(run_batch_with_failures("OLB"), kBatchTasks,
                {372.62618746564948, 166.20228171083477,
                 99056522049089417ULL});
}
TEST(HeuristicsPin, BatchWithFailuresDuplex) {
  expect_pinned(run_batch_with_failures("DUP"), kBatchTasks,
                {396.25399954125118, 147.42342913613746,
                 2716327169748782931ULL});
}
TEST(HeuristicsPin, BatchWithFailuresLL) {
  expect_pinned(run_batch_with_failures("LL"), kBatchTasks,
                {431.84379937420738, 169.08407720179906,
                 3794786253204121259ULL});
}
TEST(HeuristicsPin, BatchWithFailuresKPB) {
  expect_pinned(run_batch_with_failures("KPB"), kBatchTasks,
                {983.80820515908999, 468.16830205285777,
                 10854484928212255065ULL});
}
TEST(HeuristicsPin, BatchWithFailuresMET) {
  expect_pinned(run_batch_with_failures("MET"), kBatchTasks,
                {9262.5541144834988, 4682.5460170047227,
                 5149116277787029605ULL});
}

}  // namespace
}  // namespace gasched::sched
