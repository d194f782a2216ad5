// Tests for the discrete-event engine: protocol correctness, accounting,
// determinism, and failure detection.

#include "sim/engine.hpp"

#include <gtest/gtest.h>

#include <memory>
#include <string>

#include "sim/availability.hpp"
#include "workload/generator.hpp"

namespace gasched::sim {
namespace {

using workload::Task;
using workload::Workload;

/// Assigns every unscheduled task round-robin immediately.
class TestRoundRobin final : public SchedulingPolicy {
 public:
  BatchAssignment invoke(const SystemView& view,
                         std::deque<Task>& queue, util::Rng&) override {
    auto a = BatchAssignment::empty(view.size());
    std::size_t j = 0;
    while (!queue.empty()) {
      a.per_proc[j % view.size()].push_back(queue.front().id);
      queue.pop_front();
      ++j;
    }
    return a;
  }
  std::string name() const override { return "test-rr"; }
};

/// Assigns everything to processor 0.
class AllToZero final : public SchedulingPolicy {
 public:
  BatchAssignment invoke(const SystemView& view,
                         std::deque<Task>& queue, util::Rng&) override {
    auto a = BatchAssignment::empty(view.size());
    while (!queue.empty()) {
      a.per_proc[0].push_back(queue.front().id);
      queue.pop_front();
    }
    return a;
  }
  std::string name() const override { return "all-to-zero"; }
};

/// Never assigns anything (protocol-deadlock probe).
class NeverAssign final : public SchedulingPolicy {
 public:
  BatchAssignment invoke(const SystemView& view, std::deque<Task>&,
                         util::Rng&) override {
    return BatchAssignment::empty(view.size());
  }
  std::string name() const override { return "never"; }
};

/// Records the views it is given, then delegates to round robin.
class ViewProbe final : public SchedulingPolicy {
 public:
  BatchAssignment invoke(const SystemView& view,
                         std::deque<Task>& queue, util::Rng& rng) override {
    views.push_back(view);
    return inner.invoke(view, queue, rng);
  }
  std::string name() const override { return "probe"; }
  std::vector<SystemView> views;
  TestRoundRobin inner;
};

Cluster homogeneous_cluster(std::size_t procs, double rate, bool zero_comm,
                            double mean_comm = 10.0) {
  ClusterConfig cfg;
  cfg.num_processors = procs;
  cfg.rate_lo = rate;
  cfg.rate_hi = rate;
  cfg.zero_comm = zero_comm;
  cfg.comm.mean_cost = mean_comm;
  cfg.comm.spread_cv = 0.0;
  cfg.comm.jitter_cv = 0.0;
  util::Rng rng(7);
  return build_cluster(cfg, rng);
}

Workload constant_workload(std::size_t count, double size) {
  workload::ConstantSizes dist(size);
  util::Rng rng(3);
  return workload::generate(dist, count, rng);
}

TEST(Engine, SingleProcessorZeroCommExactMakespan) {
  const Cluster c = homogeneous_cluster(1, 10.0, /*zero_comm=*/true);
  const Workload w = constant_workload(5, 100.0);  // 5 × 10 s
  TestRoundRobin policy;
  const auto r = simulate(c, w, policy, util::Rng(1));
  EXPECT_EQ(r.tasks_completed, 5u);
  EXPECT_DOUBLE_EQ(r.makespan, 50.0);
  EXPECT_DOUBLE_EQ(r.efficiency(), 1.0);
}

TEST(Engine, TwoProcessorsSplitWorkEvenly) {
  const Cluster c = homogeneous_cluster(2, 10.0, true);
  const Workload w = constant_workload(10, 100.0);
  TestRoundRobin policy;
  const auto r = simulate(c, w, policy, util::Rng(1));
  // 5 tasks each at 10 s = 50 s.
  EXPECT_DOUBLE_EQ(r.makespan, 50.0);
  EXPECT_EQ(r.per_proc[0].tasks, 5u);
  EXPECT_EQ(r.per_proc[1].tasks, 5u);
  EXPECT_DOUBLE_EQ(r.efficiency(), 1.0);
}

TEST(Engine, CommunicationCostExtendsMakespanAndCutsEfficiency) {
  const Cluster c = homogeneous_cluster(1, 10.0, false, /*mean_comm=*/5.0);
  const Workload w = constant_workload(4, 100.0);
  TestRoundRobin policy;
  const auto r = simulate(c, w, policy, util::Rng(1));
  // Each task: 5 s comm + 10 s exec, serialized on one processor.
  EXPECT_NEAR(r.makespan, 60.0, 1e-9);
  EXPECT_NEAR(r.efficiency(), 40.0 / 60.0, 1e-9);
  EXPECT_NEAR(r.total_comm_time(), 20.0, 1e-9);
}

TEST(Engine, AllTasksCompleteOnImbalancedAssignment) {
  const Cluster c = homogeneous_cluster(3, 10.0, true);
  const Workload w = constant_workload(9, 50.0);
  AllToZero policy;
  const auto r = simulate(c, w, policy, util::Rng(1));
  EXPECT_EQ(r.tasks_completed, 9u);
  EXPECT_EQ(r.per_proc[0].tasks, 9u);
  EXPECT_EQ(r.per_proc[1].tasks, 0u);
  // Only 1 of 3 processors works: efficiency 1/3.
  EXPECT_NEAR(r.efficiency(), 1.0 / 3.0, 1e-9);
}

TEST(Engine, FasterProcessorFinishesProportionallyFaster) {
  ClusterConfig cfg;
  cfg.num_processors = 1;
  cfg.rate_lo = cfg.rate_hi = 20.0;
  cfg.zero_comm = true;
  util::Rng crng(7);
  const Cluster fast = build_cluster(cfg, crng);
  const Cluster slow = homogeneous_cluster(1, 10.0, true);
  const Workload w = constant_workload(4, 100.0);
  TestRoundRobin p1, p2;
  const auto rf = simulate(fast, w, p1, util::Rng(1));
  const auto rs = simulate(slow, w, p2, util::Rng(1));
  EXPECT_NEAR(rs.makespan / rf.makespan, 2.0, 1e-9);
}

TEST(Engine, DeterministicGivenSeed) {
  const Cluster c = homogeneous_cluster(4, 25.0, false, 3.0);
  workload::UniformSizes dist(10.0, 100.0);
  util::Rng wrng(5);
  const Workload w = workload::generate(dist, 200, wrng);
  TestRoundRobin p1, p2;
  const auto a = simulate(c, w, p1, util::Rng(99));
  const auto b = simulate(c, w, p2, util::Rng(99));
  EXPECT_DOUBLE_EQ(a.makespan, b.makespan);
  EXPECT_DOUBLE_EQ(a.efficiency(), b.efficiency());
}

TEST(Engine, NeverAssigningPolicyIsDetectedAsDeadlock) {
  const Cluster c = homogeneous_cluster(2, 10.0, true);
  const Workload w = constant_workload(3, 10.0);
  NeverAssign policy;
  EXPECT_THROW(simulate(c, w, policy, util::Rng(1)), std::runtime_error);
}

TEST(Engine, UnknownTaskIdInAssignmentThrows) {
  class BadPolicy final : public SchedulingPolicy {
   public:
    BatchAssignment invoke(const SystemView& view, std::deque<Task>& queue,
                           util::Rng&) override {
      auto a = BatchAssignment::empty(view.size());
      queue.clear();
      a.per_proc[0].push_back(9999);  // not a real task
      return a;
    }
    std::string name() const override { return "bad"; }
  };
  const Cluster c = homogeneous_cluster(1, 10.0, true);
  const Workload w = constant_workload(2, 10.0);
  BadPolicy policy;
  EXPECT_THROW(simulate(c, w, policy, util::Rng(1)), std::runtime_error);
}

/// Assigns the task at the front of the queue without popping it.
class AssignWithoutConsuming final : public SchedulingPolicy {
 public:
  BatchAssignment invoke(const SystemView& view, std::deque<Task>& queue,
                         util::Rng&) override {
    auto a = BatchAssignment::empty(view.size());
    a.per_proc[next_++ % view.size()].push_back(queue.front().id);
    return a;
  }
  std::string name() const override { return "assign-not-consume"; }

 private:
  std::size_t next_ = 0;
};

/// Pops every queued task and assigns only the first of them.
class ConsumeWithoutAssigning final : public SchedulingPolicy {
 public:
  BatchAssignment invoke(const SystemView& view, std::deque<Task>& queue,
                         util::Rng&) override {
    auto a = BatchAssignment::empty(view.size());
    a.per_proc[0].push_back(queue.front().id);
    queue.clear();
    return a;
  }
  std::string name() const override { return "consume-not-assign"; }
};

// An assignment must name exactly the tasks its invocation took off the
// queue. Without the check, AssignWithoutConsuming below kept rerunning
// task 0, never ran tasks 1-3, and still reported 4 of 4 tasks completed;
// a policy that dropped tasks surfaced only as a deadlock once the events
// ran out.
void expect_count_mismatch(SchedulingPolicy& policy, const Workload& w,
                           double sched_time_scale) {
  const Cluster c = homogeneous_cluster(2, 10.0, true);
  EngineConfig cfg;
  cfg.sched_time_scale = sched_time_scale;
  try {
    simulate(c, w, policy, util::Rng(1), cfg);
    ADD_FAILURE() << "no error (sched_time_scale " << sched_time_scale << ")";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("off the queue"), std::string::npos)
        << e.what();
  }
}

TEST(Engine, AssignedButNotConsumedThrows) {
  const Workload w = constant_workload(4, 10.0);
  for (const double scale : {0.0, 1.0}) {
    AssignWithoutConsuming policy;
    expect_count_mismatch(policy, w, scale);
  }
}

TEST(Engine, ConsumedButNotAssignedThrows) {
  Workload w;
  w.tasks = {{0, 10.0, 0.0}, {1, 10.0, 0.0}, {2, 10.0, 5.0}};
  for (const double scale : {0.0, 1.0}) {
    ConsumeWithoutAssigning policy;
    expect_count_mismatch(policy, w, scale);
  }
}

TEST(Engine, DuplicateTaskIdsRejected) {
  const Cluster c = homogeneous_cluster(1, 10.0, true);
  Workload w;
  w.tasks = {{0, 10.0, 0.0}, {0, 20.0, 0.0}};
  TestRoundRobin policy;
  EXPECT_THROW(simulate(c, w, policy, util::Rng(1)), std::invalid_argument);
}

TEST(Engine, EmptyClusterRejected) {
  Cluster c;
  const Workload w = constant_workload(1, 10.0);
  TestRoundRobin policy;
  EXPECT_THROW(simulate(c, w, policy, util::Rng(1)), std::invalid_argument);
}

TEST(Engine, CommEstimatesBecomeVisibleToLaterInvocations) {
  // Use streaming arrivals so the policy is invoked repeatedly; later
  // views must carry per-link comm observations.
  ClusterConfig cfg;
  cfg.num_processors = 2;
  cfg.rate_lo = cfg.rate_hi = 10.0;
  cfg.comm.mean_cost = 4.0;
  cfg.comm.spread_cv = 0.0;
  cfg.comm.jitter_cv = 0.0;
  util::Rng crng(7);
  const Cluster c = build_cluster(cfg, crng);

  workload::ConstantSizes dist(100.0);
  util::Rng wrng(3);
  workload::ArrivalConfig arr;
  arr.all_at_start = false;
  arr.mean_interarrival = 30.0;
  const Workload w = workload::generate(dist, 20, wrng, arr);

  ViewProbe probe;
  const auto r = simulate(c, w, probe, util::Rng(1));
  EXPECT_EQ(r.tasks_completed, 20u);
  ASSERT_GT(probe.views.size(), 1u);
  const auto& last = probe.views.back();
  bool observed = false;
  for (const auto& p : last.procs) {
    if (p.comm_observations > 0) {
      observed = true;
      EXPECT_NEAR(p.comm_estimate, 4.0, 1e-9);  // zero jitter => exact
    }
  }
  EXPECT_TRUE(observed);
}

TEST(Engine, PendingLoadVisibleInView) {
  // With all tasks at t=0 and one invocation, the first view must show
  // zero pending; engine-internal accounting is observed via a second
  // streaming arrival.
  const Cluster c = homogeneous_cluster(1, 10.0, true);
  Workload w;
  w.tasks = {{0, 100.0, 0.0}, {1, 100.0, 5.0}};  // second arrives mid-run
  ViewProbe probe;
  const auto r = simulate(c, w, probe, util::Rng(1));
  EXPECT_EQ(r.tasks_completed, 2u);
  ASSERT_EQ(probe.views.size(), 2u);
  EXPECT_DOUBLE_EQ(probe.views[0].procs[0].pending_mflops, 0.0);
  // At t=5 the first task (10 s long) still has half its work left.
  EXPECT_NEAR(probe.views[1].procs[0].pending_mflops, 50.0, 1e-9);
}

// The engine refreshes only the view entries of processors that changed
// or are executing; the three EngineView tests probe each way an entry
// can move between two invocations.

TEST(EngineView, ExecutingProcessorShowsLessPendingAtEachInvocation) {
  // Processor 1 runs the 100 s task from t = 0 while the arrivals at
  // t = 10 and t = 20 go to processor 0, so no event touches processor 1
  // between those invocations.
  const Cluster c = homogeneous_cluster(2, 10.0, true);
  Workload w;
  w.tasks = {{0, 10.0, 0.0}, {1, 1000.0, 0.0}, {2, 10.0, 10.0},
             {3, 10.0, 20.0}};
  ViewProbe probe;
  simulate(c, w, probe, util::Rng(1));
  ASSERT_EQ(probe.views.size(), 3u);
  const double at10 = probe.views[1].procs[1].pending_mflops;
  const double at20 = probe.views[2].procs[1].pending_mflops;
  EXPECT_NEAR(at10, 900.0, 1e-9);
  EXPECT_NEAR(at20, 800.0, 1e-9);
  EXPECT_LT(at20, at10);
}

TEST(EngineView, CompletedProcessorShowsNewRateAndExactlyItsQueuedLoad) {
  // Processor 1 runs at half its 10 Mflop/s base rate. It executes task 1
  // over [5, 25], then task 3 is on the wire until 30 and task 5 waits in
  // its queue. Processor 0 drains its 10-Mflop tasks by t = 24.
  Cluster c = homogeneous_cluster(2, 10.0, false, /*mean_comm=*/5.0);
  c.processors[1].availability = std::make_shared<FixedAvailability>(0.5);
  Workload w;
  w.tasks = {{0, 10.0, 0.0},  {1, 100.0, 0.0}, {2, 10.0, 0.0},
             {3, 200.0, 0.0}, {4, 10.0, 0.0},  {5, 300.0, 0.0},
             {6, 10.0, 10.0}, {7, 10.0, 27.0}};
  ViewProbe probe;
  const auto r = simulate(c, w, probe, util::Rng(1));
  EXPECT_EQ(r.tasks_completed, 8u);
  ASSERT_EQ(probe.views.size(), 3u);
  const auto& at10 = probe.views[1];
  EXPECT_EQ(at10.procs[1].rate, 10.0);  // nothing observed yet
  EXPECT_NEAR(at10.procs[1].pending_mflops, 75.0 + 200.0 + 300.0, 1e-9);
  const auto& at27 = probe.views[2];
  EXPECT_EQ(at27.now, 27.0);
  EXPECT_EQ(at27.procs[1].rate, 5.0);  // 100 Mflop in 20 s
  EXPECT_EQ(at27.procs[1].pending_mflops, 200.0 + 300.0);
  EXPECT_EQ(at27.procs[0].pending_mflops, 0.0);
}

TEST(EngineView, AssignedButUndispatchedProcessorShowsItsQueuedLoad) {
  // One serial uplink: processor 1's task waits at the link while
  // processor 0's payload is on the wire over [0, 5].
  const Cluster c = homogeneous_cluster(2, 10.0, false, /*mean_comm=*/5.0);
  Workload w;
  w.tasks = {{0, 100.0, 0.0}, {1, 70.0, 0.0}, {2, 10.0, 1.0}};
  EngineConfig cfg;
  cfg.serial_dispatch = true;
  ViewProbe probe;
  const auto r = simulate(c, w, probe, util::Rng(1), cfg);
  EXPECT_EQ(r.tasks_completed, 3u);
  ASSERT_GE(probe.views.size(), 2u);
  const auto& at1 = probe.views[1];
  EXPECT_EQ(at1.now, 1.0);
  EXPECT_EQ(at1.procs[0].pending_mflops, 100.0);  // in flight
  EXPECT_EQ(at1.procs[1].pending_mflops, 70.0);   // queued
  EXPECT_EQ(at1.procs[1].comm_observations, 0u);
}

TEST(Engine, InjectTaskRejectsAnIdItStillOwns) {
  const Cluster c = homogeneous_cluster(1, 10.0, true);
  const Workload w = constant_workload(2, 10.0);
  TestRoundRobin policy;
  Engine engine(c, w, policy, util::Rng(1));
  EXPECT_THROW(engine.inject_task(w.tasks[0], 0.0), std::invalid_argument);
  EXPECT_EQ(engine.tasks_total(), 2u);
  const auto r = engine.run();
  EXPECT_EQ(r.tasks_completed, 2u);
}

TEST(Engine, TakenTaskInjectedBackStillCompletes) {
  const Cluster c = homogeneous_cluster(1, 10.0, true);
  const Workload w = constant_workload(2, 10.0);
  TestRoundRobin policy;
  Engine engine(c, w, policy, util::Rng(1));
  engine.step();  // the first t = 0 arrival waits for the second
  std::vector<Task> taken = engine.take_unscheduled(1);
  ASSERT_EQ(taken.size(), 1u);
  engine.inject_task(taken[0], 0.0);
  while (!engine.finished()) {
    if (!engine.has_events()) {
      ASSERT_TRUE(engine.kick());
    }
    engine.step();
  }
  EXPECT_EQ(engine.tasks_completed(), 2u);
  EXPECT_EQ(engine.result().tasks_completed, 2u);
}

TEST(Engine, RateEstimateConvergesToTrueRate) {
  ClusterConfig cfg;
  cfg.num_processors = 1;
  cfg.rate_lo = cfg.rate_hi = 40.0;
  cfg.zero_comm = true;
  util::Rng crng(7);
  const Cluster c = build_cluster(cfg, crng);
  workload::ConstantSizes dist(100.0);
  util::Rng wrng(3);
  workload::ArrivalConfig arr;
  arr.all_at_start = false;
  arr.mean_interarrival = 10.0;
  const Workload w = workload::generate(dist, 10, wrng, arr);
  ViewProbe probe;
  simulate(c, w, probe, util::Rng(1));
  ASSERT_GT(probe.views.size(), 2u);
  EXPECT_NEAR(probe.views.back().procs[0].rate, 40.0, 1e-6);
}

TEST(Engine, MeanResponseTimePositiveAndBounded) {
  const Cluster c = homogeneous_cluster(2, 10.0, true);
  const Workload w = constant_workload(10, 100.0);
  TestRoundRobin policy;
  const auto r = simulate(c, w, policy, util::Rng(1));
  EXPECT_GT(r.mean_response_time, 0.0);
  EXPECT_LE(r.mean_response_time, r.makespan);
}

TEST(Engine, SchedulerInvocationsCounted) {
  const Cluster c = homogeneous_cluster(2, 10.0, true);
  const Workload w = constant_workload(6, 10.0);
  TestRoundRobin policy;
  const auto r = simulate(c, w, policy, util::Rng(1));
  EXPECT_GE(r.scheduler_invocations, 1u);
}

TEST(Engine, TimeVaryingAvailabilitySlowsExecution) {
  ClusterConfig base;
  base.num_processors = 1;
  base.rate_lo = base.rate_hi = 10.0;
  base.zero_comm = true;
  util::Rng r1(7);
  const Cluster dedicated = build_cluster(base, r1);

  ClusterConfig loaded = base;
  loaded.availability = AvailabilityKind::kSinusoidal;
  loaded.avail_lo = 0.3;
  loaded.avail_hi = 0.6;
  loaded.avail_period = 50.0;
  util::Rng r2(7);
  const Cluster busy = build_cluster(loaded, r2);

  const Workload w = constant_workload(5, 200.0);
  TestRoundRobin p1, p2;
  const auto fast = simulate(dedicated, w, p1, util::Rng(1));
  const auto slow = simulate(busy, w, p2, util::Rng(1));
  EXPECT_GT(slow.makespan, fast.makespan * 1.5);
}

}  // namespace
}  // namespace gasched::sim
