#pragma once
// Discrete-event simulation engine for the scheduler/processor protocol
// described in §3 of the paper:
//
//  * Arriving tasks enter a queue of unscheduled tasks at the scheduler.
//  * The scheduler maintains a queue of future tasks for each processor;
//    processors themselves hold no queue (so work is never stranded on a
//    machine that disappears).
//  * Each idle processor requests a task; the head of its future queue is
//    sent over the link (costing a sample from the communication model),
//    executes at the processor's effective rate, and completes, whereupon
//    the processor requests again.
//  * The scheduling policy is (re)invoked when tasks arrive and whenever a
//    processor goes idle with an empty future queue while unscheduled
//    tasks remain — this is what lets batch-mode policies observe realised
//    communication costs before later batches are placed.
//  * Optionally, processors fail and recover (sim::FailureTrace): all work
//    held for a failed processor — in-flight, executing, and its future
//    queue — returns to the scheduler for reassignment, exactly the
//    situation ("a machine is switched off") the paper's scheduler-side
//    queues are designed for.
//  * Optionally, scheduler computation consumes simulated time
//    (EngineConfig::sched_time_scale): an invocation's assignment only
//    takes effect sched_time_scale × (measured wall seconds) later,
//    modelling the dedicated scheduler processor of §3.
//
// The engine accounts busy / communication / idle time per processor and
// measures the wall-clock time spent inside the scheduling policy (used by
// the Fig 4 reproduction).
//
// Two ways to drive it:
//
//  * simulate() — one closed §3 run to completion (the paper's setting).
//  * class Engine — the same protocol exposed stepwise: construct, then
//    step() one event at a time, inject_task() externally-routed arrivals
//    at runtime, and take_unscheduled() backlog away for migration. This
//    is the surface fed::Federation composes N engines over; events run
//    on a sim::CalendarQueue so a single engine scales to thousands of
//    processors and millions of tasks (O(1) amortised event ops, arena
//    slots, no per-event heap allocation in steady state).
//
// The invocation boundary costs O(processors touched), not O(M). The
// engine owns one SystemView for its lifetime and a live list of the
// processors whose entry may be stale. An event handler that changes an
// input of a processor's entry (assignment, dispatch, delivery, failure
// requeue) puts that processor on the list; an executing processor stays
// on it, because its remaining work moves with the clock, so a completion
// needs no mark of its own. Each invocation rewrites only the live entries
// with the full-rebuild expressions, bit for bit, and then drops the
// processors that are no longer executing. Checked builds (no NDEBUG)
// compare every entry against a full rebuild after each refresh.
//
// Determinism contract: identical (cluster, workload, policy, rng, cfg)
// and an identical sequence of stepwise calls produce identical results;
// simulate() is byte-for-byte the pre-CalendarQueue engine (events pop in
// the same (time, FIFO-seq) order the old binary heap produced).

#include <deque>
#include <unordered_map>
#include <vector>

#include "sim/cluster.hpp"
#include "sim/event_queue.hpp"
#include "sim/failure.hpp"
#include "sim/policy.hpp"
#include "sim/types.hpp"
#include "util/smoothing.hpp"
#include "workload/task.hpp"

namespace gasched::sim {

/// Engine tuning knobs.
struct EngineConfig {
  /// Smoothing factor ν for the per-link communication estimators.
  double comm_nu = 0.5;
  /// Smoothing factor ν for the per-processor rate estimators.
  double rate_nu = 0.5;
  /// Integration step for time-varying availability models (seconds).
  double avail_dt = 1.0;
  /// Safety valve: abort if the event count exceeds this many times the
  /// task count (protocol bug guard). 0 disables.
  std::size_t max_event_factor = 64;
  /// Optional processor outage trace (borrowed; may be nullptr).
  const FailureTrace* failures = nullptr;
  /// If > 0, an invocation's assignment is applied only after
  /// sched_time_scale × (its measured wall-clock seconds) of simulated
  /// time, modelling scheduler computation on the dedicated processor.
  double sched_time_scale = 0.0;
  /// Record a per-task trace (dispatch/start/completion/processor).
  bool record_task_trace = false;
  /// Serialise dispatches over the scheduler's uplink: only one task
  /// payload is in flight at a time and further requests queue at the
  /// link. Models a single scheduler NIC instead of independent links.
  bool serial_dispatch = false;
};

/// Per-processor accounting.
struct ProcessorStats {
  double busy_time = 0.0;   ///< seconds spent executing (incl. wasted work)
  double comm_time = 0.0;   ///< seconds spent receiving task payloads
  std::size_t tasks = 0;    ///< tasks completed
  double work_mflops = 0.0; ///< MFLOPs completed
  std::size_t failures = 0; ///< outages experienced during the run
};

/// One completed task's lifecycle (recorded when
/// EngineConfig::record_task_trace is set).
struct TaskRecord {
  workload::TaskId id = workload::kInvalidTask;
  ProcId proc = kInvalidProc;  ///< processor that completed it
  double arrival = 0.0;        ///< arrival at the scheduler
  double dispatch = 0.0;       ///< final dispatch over the link
  double start = 0.0;          ///< execution start
  double completion = 0.0;     ///< execution end
  double comm_cost = 0.0;      ///< link cost of the final dispatch
  std::size_t attempts = 1;    ///< dispatch attempts (> 1 after failures)
};

/// Complete result of one simulation run.
struct SimulationResult {
  double makespan = 0.0;            ///< time of the last task completion
  std::size_t tasks_completed = 0;  ///< should equal the workload size
  std::vector<ProcessorStats> per_proc;
  std::size_t scheduler_invocations = 0;
  /// Wall-clock seconds spent inside SchedulingPolicy::invoke.
  double scheduler_wall_seconds = 0.0;
  /// Mean task response time (completion − arrival).
  double mean_response_time = 0.0;
  /// Tasks returned to the scheduler because their processor failed.
  std::size_t tasks_requeued = 0;
  /// Per-task lifecycle records (empty unless record_task_trace).
  std::vector<TaskRecord> task_trace;
  /// Largest relative deviation recorded by the fast-mode tolerance audit
  /// during this run (core/numeric.hpp). 0.0 in exact mode or when no
  /// evaluation was sampled.
  double audit_max_deviation = 0.0;

  /// Paper's efficiency metric: fraction of processor-time spent
  /// processing rather than communicating or idling, i.e.
  /// Σ busy_j / (M · makespan).
  double efficiency() const {
    if (makespan <= 0.0 || per_proc.empty()) return 0.0;
    double busy = 0.0;
    for (const auto& p : per_proc) busy += p.busy_time;
    return busy / (static_cast<double>(per_proc.size()) * makespan);
  }

  /// Total communication seconds across processors.
  double total_comm_time() const {
    double s = 0.0;
    for (const auto& p : per_proc) s += p.comm_time;
    return s;
  }

  /// Total busy seconds across processors.
  double total_busy_time() const {
    double s = 0.0;
    for (const auto& p : per_proc) s += p.busy_time;
    return s;
  }
};

/// The §3 protocol as a steppable object. `cluster` and `policy` are
/// borrowed and must outlive the engine; the workload is copied so
/// inject_task() can grow it at runtime.
class Engine {
 public:
  Engine(const Cluster& cluster, const workload::Workload& workload,
         SchedulingPolicy& policy, util::Rng rng,
         const EngineConfig& cfg = {});

  /// Runs the protocol to completion (the paper's closed setting):
  /// processes events until every task completed, giving the policy one
  /// last invocation if the event set drains early, and throws
  /// std::runtime_error on a wedged protocol (nothing assigned) or a
  /// blown event budget. Call at most once, and not after step().
  SimulationResult run();

  // --- stepwise surface (what fed::Federation drives) --------------------

  /// True when every task this engine ever owned has completed or been
  /// exported via take_unscheduled().
  bool finished() const noexcept {
    return completed_ + exported_ >= tasks_.size();
  }
  /// True when at least one event is pending.
  bool has_events() const noexcept { return !events_.empty(); }
  /// Timestamp of the next pending event. Requires has_events().
  SimTime next_event_time() const { return events_.top_time(); }
  /// Simulation clock: time of the last processed event.
  SimTime now() const noexcept { return now_; }

  /// Processes exactly one event (the earliest; FIFO among ties).
  /// Requires has_events(). Throws std::runtime_error when the event
  /// budget is exceeded.
  void step();

  /// Invokes the scheduling policy now if unscheduled tasks remain
  /// (the "one more chance" a closed run grants before declaring
  /// deadlock). Returns true when events are pending afterwards.
  bool kick();

  /// Hands an externally-routed task to this engine's scheduler: it
  /// arrives at time `at` (>= now()). Used by the federation for initial
  /// routing *and* for migrated spillover. Throws std::invalid_argument
  /// when the engine still owns a task with the same id; a task exported
  /// by take_unscheduled() may come back.
  void inject_task(const workload::Task& task, SimTime at);

  /// Removes up to `max_tasks` tasks from the *back* of the unscheduled
  /// queue (newest first, so the local scheduler keeps its FIFO head)
  /// and transfers ownership to the caller. The engine no longer counts
  /// them toward finished().
  std::vector<workload::Task> take_unscheduled(std::size_t max_tasks);

  /// Tasks waiting at the scheduler (not yet assigned to any processor).
  std::size_t unscheduled_count() const noexcept {
    return unscheduled_.size();
  }
  /// Backlog = unscheduled + assigned-but-not-yet-dispatched tasks; the
  /// queue-pressure signal migration policies compare across clusters.
  std::size_t backlog() const noexcept {
    return unscheduled_.size() + future_count_;
  }
  /// Tasks ever owned (injected + initial workload).
  std::size_t tasks_total() const noexcept { return tasks_.size(); }
  /// Tasks completed so far.
  std::size_t tasks_completed() const noexcept { return completed_; }
  /// Events processed so far (the perf probes' throughput denominator).
  std::size_t events_processed() const noexcept { return processed_; }
  /// Number of worker processors.
  std::size_t procs() const noexcept { return procs_.size(); }

  /// Snapshot of the result so far (finalised makespan/means; cheap).
  SimulationResult result() const;

 private:
  enum class EventKind : std::uint8_t {
    kArrival,
    kRequest,
    kDelivered,
    kCompleted,
    kFail,
    kRecover,
    kAssign,
  };

  struct Ev {
    EventKind kind = EventKind::kArrival;
    ProcId proc = kInvalidProc;
    std::size_t payload = 0;  // task index, or pending-assignment index
    std::uint64_t epoch = 0;  // proc epoch at posting (failure staleness)
  };

  struct ProcRuntime {
    std::deque<std::size_t> future;  // task indices awaiting dispatch
    double future_mflops = 0.0;      // running sum of queued sizes
    bool parked = false;             // idle with empty queue
    bool down = false;               // mid-outage
    std::uint64_t epoch = 0;         // bumped on failure; stale events drop
    bool inflight = false;
    std::size_t inflight_task = 0;
    double inflight_mflops = 0.0;
    bool executing = false;
    std::size_t exec_task = 0;
    double exec_mflops = 0.0;
    SimTime exec_start = 0.0;
    SimTime exec_end = 0.0;
    util::Smoother rate_est;
    util::Smoother comm_est;
    ProcessorStats stats;
    bool live = false;               // on live_: view entry may be stale
  };

  // An assignment waiting for its kAssign event.
  struct PendingAssignment {
    BatchAssignment assignment;
    std::size_t consumed = 0;  // tasks its invocation took off the queue
  };

  void post(SimTime t, EventKind k, ProcId p, std::size_t payload = 0,
            std::uint64_t epoch = 0) {
    events_.push(t, Ev{k, p, payload, epoch});
  }
  double remaining_exec_mflops(const ProcRuntime& pr) const;
  ProcessorView view_entry(std::size_t j) const;
  void touch(std::size_t j);
  void refresh_view();
  void check_view() const;
  // Throws unless the assignment names exactly `consumed` tasks: the
  // number its invocation took off unscheduled_.
  void apply_assignment(const BatchAssignment& assignment,
                        std::size_t consumed);
  void try_schedule();
  std::size_t requeue_holdings(std::size_t j);
  void start_dispatch(ProcId proc);
  std::size_t event_budget() const;
  void dispatch(const Ev& ev);

  const Cluster& cluster_;
  SchedulingPolicy& policy_;
  EngineConfig cfg_;
  util::Rng rng_;

  std::vector<workload::Task> tasks_;  // grows via inject_task
  std::unordered_map<workload::TaskId, std::size_t> id_to_index_;
  CalendarQueue<Ev> events_;
  std::vector<ProcRuntime> procs_;
  std::deque<workload::Task> unscheduled_;
  std::vector<PendingAssignment> pending_assignments_;
  std::vector<TaskRecord> records_;
  SystemView view_;                // what every invocation is handed
  std::vector<std::size_t> live_;  // processors whose view_ entry may be stale

  SimTime now_ = 0.0;
  std::size_t completed_ = 0;
  std::size_t exported_ = 0;      // tasks handed away via take_unscheduled
  std::size_t future_count_ = 0;  // Σ over procs of future-queue length
  double response_sum_ = 0.0;
  double policy_wall_ = 0.0;
  double makespan_ = 0.0;
  std::size_t invocations_ = 0;
  std::size_t requeued_ = 0;
  std::size_t processed_ = 0;
  bool link_busy_ = false;             // serial_dispatch uplink state
  std::deque<ProcId> link_waiting_;
};

/// Runs `workload` on `cluster` under `policy`. `rng` drives all stochastic
/// elements of the run (communication jitter, scheduler randomness);
/// identical inputs produce identical results.
SimulationResult simulate(const Cluster& cluster,
                          const workload::Workload& workload,
                          SchedulingPolicy& policy, util::Rng rng,
                          const EngineConfig& cfg = {});

}  // namespace gasched::sim
