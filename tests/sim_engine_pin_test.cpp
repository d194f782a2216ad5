// Exact-bits pins of the engine on streaming runs over many processors.
//
// Every invocation's SystemView feeds the policy's arithmetic, so a view
// entry that is stale or rounded differently shows up here as a changed
// makespan, mean response time, or busy/communication sum. Each protocol
// path that moves a processor's observable state between invocations has
// its own run: outages (requeue), a serialised uplink (dispatches
// deferred at the link), assignments landing after the invocation
// (sched_time_scale), and a two-cluster federation with migration
// (inject_task / take_unscheduled). Each single-engine run goes through
// both EF (one scan of every view entry) and PN (the GA prices the whole
// view).
//
// The constants were captured from the full-rebuild view engine; a change
// that alters them changed the engine's results, not just its speed.

#include <gtest/gtest.h>

#include <string>

#include "core/numeric.hpp"
#include "exp/registry.hpp"
#include "exp/scenario.hpp"
#include "fed/federation.hpp"
#include "sim/engine.hpp"
#include "util/config.hpp"
#include "workload/generator.hpp"

namespace gasched::sim {
namespace {

// PN's pins are exact-mode doubles; keep a GASCHED_NUMERIC_MODE=fast run
// from moving them (see golden_determinism_test).
const struct PinExactMode {
  PinExactMode() { core::set_default_numeric_mode(core::NumericMode::kExact); }
} pin_exact_mode;

constexpr std::size_t kProcs = 96;
constexpr std::size_t kTasks = 600;

struct Pinned {
  double makespan;
  double mean_response;
  double busy_sum;
  double comm_sum;
};

void expect_pinned(const SimulationResult& r, std::size_t tasks,
                   const Pinned& want) {
  EXPECT_EQ(r.tasks_completed, tasks);
  EXPECT_EQ(r.makespan, want.makespan);
  EXPECT_EQ(r.mean_response_time, want.mean_response);
  EXPECT_EQ(r.total_busy_time(), want.busy_sum);
  EXPECT_EQ(r.total_comm_time(), want.comm_sum);
}

// A fixed batch of 8: PN's dynamic batch takes at least M tasks, which
// batch_size then cannot cap below M.
exp::SchedulerParams pn_params() {
  exp::SchedulerParams p;
  p.set("pn_dynamic_batch", false);
  p.set("batch_size", 8);
  p.set("max_generations", 20);
  p.set("population", 12);
  return p;
}

/// 600 uniform [100, 1000] Mflop tasks arriving at 8/s on 96 paper
/// processors with 1 s mean links: slightly over capacity, so most
/// processors are executing at every invocation and queues build.
SimulationResult run_streaming(const std::string& scheduler,
                               EngineConfig ecfg,
                               const FailureConfig* failures = nullptr) {
  util::Rng cluster_rng(101);
  const Cluster cluster =
      build_cluster(exp::paper_cluster(1.0, kProcs), cluster_rng);
  workload::UniformSizes sizes(100.0, 1000.0);
  workload::ArrivalConfig arrivals;
  arrivals.all_at_start = false;
  arrivals.mean_interarrival = 0.125;
  util::Rng workload_rng(202);
  const workload::Workload w =
      workload::generate(sizes, kTasks, workload_rng, arrivals);
  FailureTrace trace;
  if (failures != nullptr) {
    util::Rng failure_rng(303);
    trace = FailureTrace(*failures, kProcs, failure_rng);
    ecfg.failures = &trace;
  }
  const auto policy =
      exp::SchedulerRegistry::instance().create(scheduler, pn_params());
  return simulate(cluster, w, *policy, util::Rng(404), ecfg);
}

FailureConfig outages() {
  FailureConfig f;
  f.mean_uptime = 40.0;
  f.mean_downtime = 10.0;
  f.horizon = 1e5;
  return f;
}

TEST(EnginePin, FailureTraceEF) {
  const FailureConfig f = outages();
  const auto r = run_streaming("EF", {}, &f);
  EXPECT_GT(r.tasks_requeued, 0u);
  expect_pinned(r, kTasks,
                {171.05228470589208, 28.337893775951411, 6150.9480137378814,
                 865.42008884056429});
}

TEST(EnginePin, FailureTracePN) {
  const FailureConfig f = outages();
  const auto r = run_streaming("PN", {}, &f);
  EXPECT_GT(r.tasks_requeued, 0u);
  expect_pinned(r, kTasks,
                {163.20652100064348, 28.780633706499419, 6320.2257911637662,
                 848.53907756606145});
}

EngineConfig serial_uplink() {
  EngineConfig c;
  c.serial_dispatch = true;
  return c;
}

TEST(EnginePin, SerialDispatchEF) {
  expect_pinned(run_streaming("EF", serial_uplink()), kTasks,
                {690.2552371783944, 305.85369635600063, 5736.6434681513201,
                 677.36037155466113});
}

TEST(EnginePin, SerialDispatchPN) {
  expect_pinned(run_streaming("PN", serial_uplink()), kTasks,
                {678.48731703344527, 303.91078884200351, 5730.1779953002169,
                 665.88327903669779});
}

// Every assignment is applied by a later kAssign event. The scale is so
// small that scale × (wall seconds) rounds away against any arrival time,
// so the run does not depend on how fast the policy ran.
EngineConfig delayed_assignments() {
  EngineConfig c;
  c.sched_time_scale = 1e-300;
  return c;
}

TEST(EnginePin, DelayedAssignmentsEF) {
  expect_pinned(run_streaming("EF", delayed_assignments()), kTasks,
                {96.774841163127746, 11.49521930095238, 4628.4582610880962,
                 670.92670548212993});
}

TEST(EnginePin, DelayedAssignmentsPN) {
  expect_pinned(run_streaming("PN", delayed_assignments()), kTasks,
                {97.443066961149754, 11.751476133162388, 4785.1725024665366,
                 643.87135636504195});
}

// PN takes two tasks per invocation, so the outages of the overloaded PN
// cluster return more work than it reschedules at once; threshold
// migration pushes that backlog to the EF cluster.
constexpr const char* kFederationIni = R"(
[federation]
clusters = ef, pn
topology = full_mesh
router = weighted
migration = threshold
migration_threshold = 4
migration_chunk = 4
seed = 11
replications = 1
latency = 0.05
bandwidth = 1e5

[workload]
dist = uniform
param_a = 100
param_b = 1000
count = 600
all_at_start = false
mean_interarrival = 0.125

[scheduler]
pn_dynamic_batch = false
batch_size = 2
max_generations = 20
population = 12

[cluster.ef]
processors = 48
mean_comm_cost = 1
scheduler = EF

[cluster.pn]
processors = 48
mean_comm_cost = 1
scheduler = PN
weight = 3
failures = true
mean_uptime = 20
mean_downtime = 5
)";

TEST(EnginePin, FederationWithMigration) {
  const auto cfg = fed::federation_from_config(
      util::Config::parse(kFederationIni));
  const fed::FederationResult r = fed::run_federation(cfg, 0);
  EXPECT_GT(r.migrations, 0u);
  expect_pinned(r.as_simulation_result(), kTasks,
                {166.63623051023376, 30.574786757708328, 6038.9696446431817,
                 950.66567397539438});
}

}  // namespace
}  // namespace gasched::sim
