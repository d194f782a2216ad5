// Tests for the live in-process runtime. Wall-clock driven, so the
// assertions are about completion, accounting, and qualitative behaviour,
// not exact values. Task sizes are kept tiny so the suite stays fast.

#include "rt/runtime.hpp"

#include <gtest/gtest.h>

#include <deque>
#include <memory>
#include <stdexcept>
#include <string>

#include "exp/scenario.hpp"
#include "meta/sa.hpp"
#include "meta/tabu.hpp"
#include "sched/heuristics.hpp"

namespace gasched::rt {
namespace {

workload::Task tiny_task(workload::TaskId id, double mflops = 1.0) {
  return {id, mflops, 0.0};
}

RuntimeConfig quick_config(std::size_t workers = 3) {
  RuntimeConfig cfg;
  cfg.worker_speeds.assign(workers, 1.0);
  cfg.work_scale = 0.05;  // 1-MFLOP task => 0.05 real MFLOP
  cfg.seed = 11;
  return cfg;
}

TEST(BurnMflops, ScalesRoughlyLinearly) {
  // Warm up, then check 8x work takes measurably longer.
  burn_mflops(1.0);
  const auto t0 = std::chrono::steady_clock::now();
  burn_mflops(4.0);
  const auto t1 = std::chrono::steady_clock::now();
  burn_mflops(32.0);
  const auto t2 = std::chrono::steady_clock::now();
  const double small = std::chrono::duration<double>(t1 - t0).count();
  const double large = std::chrono::duration<double>(t2 - t1).count();
  EXPECT_GT(large, 2.0 * small);
}

TEST(Runtime, DrivesLocalSearchPoliciesUnmodified) {
  // The same SA / tabu objects used in simulation must run against real
  // threads: the runtime only speaks sim::SchedulingPolicy.
  meta::SaConfig sa_cfg;
  sa_cfg.batch.batch_size = 8;
  Runtime sa_runtime(quick_config(3), meta::make_sa_scheduler(sa_cfg));
  for (workload::TaskId id = 0; id < 24; ++id) {
    sa_runtime.submit(tiny_task(id));
  }
  EXPECT_EQ(sa_runtime.drain().tasks_completed, 24u);

  meta::TabuConfig ts_cfg;
  ts_cfg.batch.batch_size = 8;
  Runtime ts_runtime(quick_config(2), meta::make_tabu_scheduler(ts_cfg));
  for (workload::TaskId id = 0; id < 16; ++id) {
    ts_runtime.submit(tiny_task(id));
  }
  EXPECT_EQ(ts_runtime.drain().tasks_completed, 16u);
}

TEST(Runtime, CompletesAllSubmittedTasks) {
  Runtime runtime(quick_config(), sched::make_ef());
  for (int i = 0; i < 60; ++i) runtime.submit(tiny_task(i));
  const RuntimeResult r = runtime.drain();
  EXPECT_EQ(r.tasks_completed, 60u);
  std::size_t total = 0;
  double work = 0.0;
  for (const auto& w : r.per_worker) {
    total += w.tasks;
    work += w.work_mflops;
  }
  EXPECT_EQ(total, 60u);
  EXPECT_NEAR(work, 60.0, 1e-9);
  EXPECT_GT(r.makespan_seconds, 0.0);
  EXPECT_GE(r.scheduler_invocations, 1u);
}

TEST(Runtime, DrainIsRepeatable) {
  Runtime runtime(quick_config(2), sched::make_rr());
  for (int i = 0; i < 10; ++i) runtime.submit(tiny_task(i));
  EXPECT_EQ(runtime.drain().tasks_completed, 10u);
  for (int i = 10; i < 25; ++i) runtime.submit(tiny_task(i));
  EXPECT_EQ(runtime.drain().tasks_completed, 25u);  // cumulative
}

TEST(Runtime, UsesAllWorkersUnderRoundRobin) {
  Runtime runtime(quick_config(3), sched::make_rr());
  for (int i = 0; i < 30; ++i) runtime.submit(tiny_task(i));
  const RuntimeResult r = runtime.drain();
  for (const auto& w : r.per_worker) EXPECT_EQ(w.tasks, 10u);
}

TEST(Runtime, BatchTriggerDefersScheduling) {
  RuntimeConfig cfg = quick_config(2);
  cfg.min_batch_trigger = 1000;  // never reached; drain() must flush
  Runtime runtime(cfg, sched::make_ef());
  for (int i = 0; i < 8; ++i) runtime.submit(tiny_task(i));
  const RuntimeResult r = runtime.drain();
  EXPECT_EQ(r.tasks_completed, 8u);
  EXPECT_EQ(r.scheduler_invocations, 1u);  // exactly the drain flush
}

TEST(Runtime, HeterogeneousSpeedsShiftLoadUnderEf) {
  RuntimeConfig cfg;
  cfg.worker_speeds = {1.0, 0.2};  // worker 1 is 5x slower
  cfg.work_scale = 0.2;
  cfg.seed = 3;
  Runtime runtime(cfg, sched::make_ef());
  for (int i = 0; i < 40; ++i) runtime.submit(tiny_task(i, 2.0));
  const RuntimeResult r = runtime.drain();
  EXPECT_EQ(r.tasks_completed, 40u);
  // EF should give the fast worker clearly more tasks.
  EXPECT_GT(r.per_worker[0].tasks, r.per_worker[1].tasks);
}

TEST(Runtime, EmulatedLatencyIsAccounted) {
  RuntimeConfig cfg = quick_config(2);
  cfg.dispatch_latency = {0.002, 0.002};
  Runtime runtime(cfg, sched::make_rr());
  for (int i = 0; i < 10; ++i) runtime.submit(tiny_task(i));
  const RuntimeResult r = runtime.drain();
  double comm = 0.0;
  for (const auto& w : r.per_worker) comm += w.comm_seconds;
  EXPECT_GT(comm, 0.005);  // 10 dispatches x ~2 ms
}

TEST(Runtime, GeneticSchedulerRunsLive) {
  // The paper's PN scheduler drives real threads through the same
  // interface it uses in simulation.
  exp::SchedulerParams opts;
  opts.set("max_generations", 30);
  opts.set("population", 10);
  opts.set("batch_size", 64);
  RuntimeConfig cfg = quick_config(3);
  cfg.min_batch_trigger = 64;
  Runtime runtime(cfg, exp::make_scheduler("PN", opts));
  for (int i = 0; i < 64; ++i) runtime.submit(tiny_task(i, 1.5));
  const RuntimeResult r = runtime.drain();
  EXPECT_EQ(r.tasks_completed, 64u);
}

TEST(Runtime, RejectsInvalidConfig) {
  RuntimeConfig bad = quick_config();
  bad.worker_speeds = {0.0};
  EXPECT_THROW(Runtime(bad, sched::make_ef()), std::invalid_argument);
  RuntimeConfig bad2 = quick_config();
  bad2.work_scale = 0.0;
  EXPECT_THROW(Runtime(bad2, sched::make_ef()), std::invalid_argument);
  EXPECT_THROW(Runtime(quick_config(), nullptr), std::invalid_argument);
}

// Break the sim::SchedulingPolicy contract in one direction each: assign
// the front task without taking it off the queue, or take it without
// assigning it.
class AssignWithoutConsuming final : public sim::SchedulingPolicy {
 public:
  sim::BatchAssignment invoke(const sim::SystemView& view,
                              std::deque<workload::Task>& queue,
                              util::Rng&) override {
    auto a = sim::BatchAssignment::empty(view.size());
    a.per_proc[0].push_back(queue.front().id);
    return a;
  }
  std::string name() const override { return "assign-not-consume"; }
};

class ConsumeWithoutAssigning final : public sim::SchedulingPolicy {
 public:
  sim::BatchAssignment invoke(const sim::SystemView& view,
                              std::deque<workload::Task>& queue,
                              util::Rng&) override {
    queue.pop_front();
    return sim::BatchAssignment::empty(view.size());
  }
  std::string name() const override { return "consume-not-assign"; }
};

void expect_count_mismatch(Runtime& runtime) {
  try {
    runtime.submit(tiny_task(0));
    ADD_FAILURE() << "no error";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("off the queue"), std::string::npos)
        << e.what();
  }
}

// An id assigned but left queued would be dispatched again on every
// later round; a task taken but not assigned would leave drain() waiting
// forever.
TEST(Runtime, AssignedButNotConsumedThrows) {
  Runtime runtime(quick_config(2), std::make_unique<AssignWithoutConsuming>());
  expect_count_mismatch(runtime);
}

TEST(Runtime, ConsumedButNotAssignedThrows) {
  Runtime runtime(quick_config(2),
                  std::make_unique<ConsumeWithoutAssigning>());
  expect_count_mismatch(runtime);
}

TEST(Runtime, HostCalibrationIsPositive) {
  Runtime runtime(quick_config(1), sched::make_rr());
  EXPECT_GT(runtime.host_mflops(), 0.0);
}

// --- Serve mode (open-loop arrivals over the SPSC dispatch plane) ------

ServeConfig quick_serve(double duration = 0.2, double rate = 2000.0) {
  ServeConfig cfg;
  cfg.duration_s = duration;
  cfg.rate = rate;
  return cfg;
}

TEST(RuntimeServe, CompletesAndAccounts) {
  Runtime runtime(quick_config(3), sched::make_rr());
  const workload::ConstantSizes sizes(1.0);
  const ServeResult r = runtime.serve(quick_serve(), sizes);
  EXPECT_GT(r.offered, 0u);
  EXPECT_EQ(r.offered, r.admitted + r.shed);
  EXPECT_EQ(r.completed, r.admitted);  // window is fully drained
  EXPECT_GT(r.throughput_per_sec, 0.0);
  // Latency summaries cover every completed task and are ordered.
  EXPECT_EQ(r.sched_latency.count, r.completed);
  EXPECT_EQ(r.queue_latency.count, r.completed);
  EXPECT_EQ(r.sojourn.count, r.completed);
  EXPECT_LE(r.sched_latency.p50, r.sched_latency.p99);
  EXPECT_LE(r.sched_latency.p99, r.sched_latency.p999);
  EXPECT_GE(r.sojourn.p50, r.queue_latency.p50);  // sojourn ⊇ queueing
  // Per-worker accounting adds up to the window's completions.
  std::size_t tasks = 0;
  for (const auto& w : r.per_worker) tasks += w.tasks;
  EXPECT_EQ(tasks, r.completed);
}

TEST(RuntimeServe, RoutePolicyNamesParse) {
  EXPECT_EQ(parse_route_policy("rr"), RoutePolicy::kRoundRobin);
  EXPECT_EQ(parse_route_policy("least_loaded"), RoutePolicy::kLeastLoaded);
  // "fastest" keeps its config name: smallest pending/rate drain time.
  EXPECT_EQ(parse_route_policy("fastest"), RoutePolicy::kShortestDrain);
  for (const char* bad : {"", "FASTEST", "shortest_drain", "random"}) {
    try {
      parse_route_policy(bad);
      FAIL() << "'" << bad << "' was accepted";
    } catch (const std::exception& e) {
      EXPECT_NE(std::string(e.what()).find("rr, least_loaded, fastest"),
                std::string::npos)
          << e.what();
    }
  }
}

TEST(RuntimeServe, AllRoutePoliciesServe) {
  const workload::ConstantSizes sizes(1.0);
  for (const char* policy : {"rr", "least_loaded", "fastest"}) {
    Runtime runtime(quick_config(2), sched::make_rr());
    ServeConfig cfg = quick_serve(0.1);
    cfg.policy = policy;
    const ServeResult r = runtime.serve(cfg, sizes);
    EXPECT_EQ(r.completed, r.admitted) << policy;
    EXPECT_GT(r.completed, 0u) << policy;
  }
}

TEST(RuntimeServe, RepeatedWindowsAreIndependent) {
  Runtime runtime(quick_config(2), sched::make_rr());
  const workload::ConstantSizes sizes(1.0);
  const ServeResult a = runtime.serve(quick_serve(0.1), sizes);
  const ServeResult b = runtime.serve(quick_serve(0.1), sizes);
  EXPECT_EQ(a.completed, a.admitted);
  EXPECT_EQ(b.completed, b.admitted);
  // The second window reports only its own tasks.
  std::size_t tasks = 0;
  for (const auto& w : b.per_worker) tasks += w.tasks;
  EXPECT_EQ(tasks, b.completed);
}

TEST(RuntimeServe, ShedsUnderOverloadWithTinyQueue) {
  RuntimeConfig rcfg = quick_config(1);
  rcfg.work_scale = 1.0;   // ~1 real MFLOP per task: the worker saturates
  rcfg.ring_capacity = 16;  // small ring => backpressure reaches the queue
  Runtime runtime(rcfg, sched::make_rr());
  const workload::ConstantSizes sizes(1.0);
  ServeConfig cfg = quick_serve(0.2, 20000.0);
  cfg.queue_capacity = 8;
  const ServeResult r = runtime.serve(cfg, sizes);
  EXPECT_GT(r.shed, 0u);
  EXPECT_EQ(r.offered, r.admitted + r.shed);
  EXPECT_EQ(r.completed, r.admitted);
}

TEST(RuntimeServe, ArrivalPresetsDriveTheWindow) {
  Runtime runtime(quick_config(2), sched::make_rr());
  const workload::ConstantSizes sizes(1.0);
  ServeConfig flash = quick_serve(0.2, 2000.0);
  flash.arrival = "flash";
  flash.arrival_params.set("arrival_flash_start", 0.05);
  flash.arrival_params.set("arrival_flash_width", 0.05);
  flash.arrival_params.set("arrival_flash_mult", 5.0);
  const ServeResult r = runtime.serve(flash, sizes);
  EXPECT_GT(r.completed, 0u);
  EXPECT_EQ(r.completed, r.admitted);
}

TEST(RuntimeServe, RejectsBadConfigs) {
  Runtime runtime(quick_config(1), sched::make_rr());
  const workload::ConstantSizes sizes(1.0);
  ServeConfig bad = quick_serve();
  bad.policy = "nope";
  EXPECT_THROW(runtime.serve(bad, sizes), std::runtime_error);
  ServeConfig bad2 = quick_serve();
  bad2.arrival = "lunar";  // unknown preset: error lists the valid names
  try {
    runtime.serve(bad2, sizes);
    FAIL() << "expected std::runtime_error";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("diurnal"), std::string::npos);
  }
  ServeConfig bad3 = quick_serve();
  bad3.duration_s = 0.0;
  EXPECT_THROW(runtime.serve(bad3, sizes), std::invalid_argument);
  ServeConfig bad4 = quick_serve();
  bad4.rate = -1.0;
  EXPECT_THROW(runtime.serve(bad4, sizes), std::invalid_argument);
}

TEST(RuntimeServe, RefusesWithUndrainedBatchWork) {
  RuntimeConfig cfg = quick_config(1);
  cfg.min_batch_trigger = 1000;  // keep the submission unscheduled
  Runtime runtime(cfg, sched::make_rr());
  runtime.submit(tiny_task(0));
  const workload::ConstantSizes sizes(1.0);
  EXPECT_THROW(runtime.serve(quick_serve(), sizes), std::logic_error);
  EXPECT_EQ(runtime.drain().tasks_completed, 1u);  // still drainable
  EXPECT_GT(runtime.serve(quick_serve(0.05), sizes).completed, 0u);
}

TEST(RuntimeServe, BatchModeStillWorksAfterServing) {
  Runtime runtime(quick_config(2), sched::make_rr());
  const workload::ConstantSizes sizes(1.0);
  const ServeResult r = runtime.serve(quick_serve(0.1), sizes);
  EXPECT_EQ(r.completed, r.admitted);
  for (int i = 0; i < 10; ++i) runtime.submit(tiny_task(i));
  EXPECT_EQ(runtime.drain().tasks_completed, 10u + r.completed);
}

}  // namespace
}  // namespace gasched::rt
