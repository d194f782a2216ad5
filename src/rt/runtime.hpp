#pragma once
// Live in-process serving runtime: the paper's §6 future work ("test our
// scheduler under real-world conditions") grown from a drain-a-vector
// demo into a long-lived master/worker serving benchmark.
//
// The runtime is split into a data plane and a control plane:
//
//  * Data plane — per worker, two preallocated lock-free SPSC descriptor
//    rings (rt/ring.hpp): an inbox carrying fixed-size task descriptors
//    master → worker and an outbox carrying completion descriptors back.
//    The steady-state dispatch path (admit → route → ring push → execute
//    → completion reap → latency record) performs ZERO heap allocations
//    and ZERO mutex acquisitions. Workers spin on their inbox while
//    loaded and fall back to a parked condvar wait (util/park.hpp) only
//    when idle; the master pays one fence + one relaxed load per wake
//    check, never a lock, while workers are busy.
//  * Control plane — everything else, owned by the single master thread
//    (the thread calling submit()/drain()/serve()): the unscheduled
//    queue, scheduling-policy invocation, per-worker rate/latency
//    estimators, spill staging for ring overflow, accounting. No
//    synchronisation needed: workers never touch it.
//
// Two operating modes share the planes:
//
//  * Batch mode (submit()/drain()) — the original §3 protocol: any
//    sim::SchedulingPolicy (PN/ZO/EF/SA/...) consumes the unscheduled
//    queue and its assignment is materialised into the rings.
//  * Serve mode (serve()) — an open-loop arrival source at configurable
//    λ(t) (workload/arrival.hpp presets: constant, diurnal, ramp, flash
//    crowd) feeds a bounded admission queue with a shed-or-block overload
//    policy; per-task routing policies (round-robin / least-loaded /
//    fastest-drain — the immediate-mode counterparts of the paper's RR,
//    LL and EF) dispatch into the rings; a LatencyRecorder reports
//    p50/p99/p999 scheduling, queueing and sojourn latency.
//
// Each worker executes real floating-point work (a calibrated
// multiply-add kernel), optionally slowed by a per-worker speed factor;
// dispatch latency can be emulated per worker (the mean is jittered
// ±20%; a zero mean skips the RNG draw entirely, so the zero-latency
// path is RNG-stream-free). The runtime is wall-clock driven and
// therefore not bit-reproducible; tests assert completion, accounting,
// and qualitative behaviour (docs/runtime.md).

#include <atomic>
#include <chrono>
#include <cstdint>
#include <deque>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "exp/params.hpp"
#include "rt/latency.hpp"
#include "rt/ring.hpp"
#include "sim/policy.hpp"
#include "util/park.hpp"
#include "util/rng.hpp"
#include "util/smoothing.hpp"
#include "workload/arrival.hpp"
#include "workload/generator.hpp"
#include "workload/task.hpp"

namespace gasched::rt {

/// Runtime configuration.
struct RuntimeConfig {
  /// Relative speed of each worker (1.0 = full host speed); the vector's
  /// length is the worker count. Empty = 4 equal workers.
  std::vector<double> worker_speeds;
  /// Scales task sizes: a task of S MFLOPs executes S * work_scale
  /// million floating-point operations for real. Keep small in tests.
  double work_scale = 0.01;
  /// Emulated mean dispatch latency per worker (seconds of sleep before a
  /// task starts); drawn per dispatch as uniform ±20% around the mean.
  /// A zero mean performs no RNG draw. Empty = no emulated latency.
  std::vector<double> dispatch_latency;
  /// Batch scheduling trigger: invoke the policy whenever at least this
  /// many tasks are waiting (and on drain). Batch mode only.
  std::size_t min_batch_trigger = 1;
  /// Seed for the runtime's internal RNG (latency jitter + policy +
  /// serve-mode arrivals).
  std::uint64_t seed = 1;
  /// Per-worker SPSC ring capacity (rounded up to a power of two). Also
  /// bounds each worker's in-flight descriptors.
  std::size_t ring_capacity = 1024;
  /// Empty inbox polls a worker performs before parking.
  std::size_t spin_polls = 4096;
};

/// Per-worker accounting.
struct WorkerStats {
  std::size_t tasks = 0;       ///< tasks completed
  double work_mflops = 0.0;    ///< nominal MFLOPs completed
  double busy_seconds = 0.0;   ///< wall time spent in the compute kernel
  double comm_seconds = 0.0;   ///< wall time spent in emulated dispatch
};

/// Result of a drained runtime (batch mode).
struct RuntimeResult {
  double makespan_seconds = 0.0;  ///< submit-to-last-completion wall time
  std::size_t tasks_completed = 0;
  std::vector<WorkerStats> per_worker;
  std::size_t scheduler_invocations = 0;
};

/// Serve-mode routing policy: which worker gets the next admitted task.
/// Immediate-mode counterparts of the paper's RR / LL / EF.
enum class RoutePolicy {
  kRoundRobin,     ///< "rr": cyclic, skipping workers with a full inbox
  kLeastLoaded,    ///< "least_loaded": fewest pending MFLOPs
  kShortestDrain,  ///< "fastest": smallest pending/rate drain time
};

/// Parses a routing-policy name. Throws std::runtime_error listing the
/// valid names ("rr", "least_loaded", "fastest") on an unknown one.
RoutePolicy parse_route_policy(const std::string& name);

/// Serve-mode configuration: the open-loop arrival stream, the bounded
/// admission queue, and the routing policy.
struct ServeConfig {
  /// Wall-clock length of the arrival window (seconds). Admitted tasks
  /// still in flight when it closes are drained before reporting.
  double duration_s = 5.0;
  /// Base arrival rate λ in tasks per wall-clock second.
  double rate = 1000.0;
  /// Arrival preset: "constant", "diurnal", "ramp", "flash" (see
  /// workload::make_rate_function; shape keys in arrival_params). Used
  /// only when rate_function is null.
  std::string arrival = "constant";
  /// Shape keys for the preset (arrival_amplitude, arrival_period, ...).
  exp::Params arrival_params;
  /// Prebuilt λ(t), overriding `arrival`/`arrival_params` when set.
  std::shared_ptr<const workload::RateFunction> rate_function;
  /// Routing policy name ("rr", "least_loaded", "fastest").
  std::string policy = "rr";
  /// Tasks routed per master loop iteration (admission batching).
  std::size_t admission_batch = 32;
  /// Bounded admission-queue capacity — the backpressure point.
  std::size_t queue_capacity = 4096;
  /// Overload policy: true = shed (drop the arrival, count it), false =
  /// block (pause the arrival clock until space frees — closed-loop
  /// under overload).
  bool shed = true;
};

/// Result of one serve() window.
struct ServeResult {
  double duration_s = 0.0;        ///< window + drain wall time
  std::uint64_t offered = 0;      ///< arrivals generated by the source
  std::uint64_t admitted = 0;     ///< accepted into the admission queue
  std::uint64_t shed = 0;         ///< dropped by the overload policy
  std::uint64_t completed = 0;    ///< finished execution
  double throughput_per_sec = 0;  ///< completed / duration
  LatencySummary sched_latency;   ///< arrival-due → ring push
  LatencySummary queue_latency;   ///< ring push → execution start
  LatencySummary sojourn;         ///< arrival-due → completion
  std::vector<WorkerStats> per_worker;
};

/// The live master/worker runtime.
class Runtime {
 public:
  /// Starts the worker threads. The policy drives batch mode
  /// (submit()/drain()) and is invoked from the caller's thread; it must
  /// be non-null even for serve-only use (serve() ignores it).
  Runtime(RuntimeConfig cfg, std::unique_ptr<sim::SchedulingPolicy> policy);

  /// Stops all workers (discarding any unfinished work).
  ~Runtime();

  Runtime(const Runtime&) = delete;
  Runtime& operator=(const Runtime&) = delete;

  /// Batch mode: enqueues one task; may trigger a scheduling round.
  void submit(const workload::Task& task);

  /// Batch mode: blocks until every submitted task has completed and
  /// returns the accounting. The runtime remains usable afterwards.
  RuntimeResult drain();

  /// Serve mode: runs an open-loop arrival window against the worker
  /// pool, drawing task sizes from `sizes`. The steady-state loop is
  /// allocation- and lock-free. May be called repeatedly; each call
  /// reports its own window. Must not be mixed with un-drained submit()s.
  ServeResult serve(const ServeConfig& cfg,
                    const workload::SizeDistribution& sizes);

  /// Number of workers.
  std::size_t workers() const noexcept { return workers_.size(); }

  /// Measured host compute rate (Mflop/s) from the startup calibration.
  double host_mflops() const noexcept { return host_mflops_; }

 private:
  /// Fixed-size task descriptor carried master → worker. POD, copied by
  /// value through the ring.
  struct TaskDesc {
    workload::TaskId id = workload::kInvalidTask;
    double size_mflops = 0.0;
    double latency_s = 0.0;          ///< emulated dispatch latency
    std::uint64_t admit_ns = 0;      ///< arrival-due / submit instant
    std::uint64_t dispatch_ns = 0;   ///< ring-push instant
  };

  /// Completion descriptor carried worker → master.
  struct Completion {
    workload::TaskId id = workload::kInvalidTask;
    double size_mflops = 0.0;
    double latency_s = 0.0;          ///< emulated latency actually slept
    double exec_s = 0.0;             ///< kernel wall time
    std::uint64_t admit_ns = 0;
    std::uint64_t dispatch_ns = 0;
    std::uint64_t start_ns = 0;      ///< worker picked the task up
    std::uint64_t done_ns = 0;
  };

  struct Worker {
    // Data plane (shared with the worker thread through the rings only).
    SpscRing<TaskDesc> inbox;
    SpscRing<Completion> outbox;
    util::Parker parker;
    std::thread thread;
    double speed = 1.0;

    // Control plane — master-thread-owned; the worker thread never
    // touches anything below.
    double pending_mflops = 0.0;   ///< dispatched + spilled, not completed
    std::size_t inflight = 0;      ///< ring-resident descriptors
    WorkerStats stats;
    util::Smoother rate_est{0.5};
    util::Smoother comm_est{0.5};
    util::Rng jitter_rng{0};       ///< latency jitter substream
    std::deque<TaskDesc> spill;    ///< staging when the inbox is full

    Worker(std::size_t ring_capacity)
        : inbox(ring_capacity), outbox(ring_capacity) {}
  };

  void worker_loop(std::size_t index);
  void run_task(Worker& w, const TaskDesc& desc);

  // Master-thread helpers.
  std::uint64_t now_ns() const noexcept;
  double emulated_latency(Worker& w, std::size_t index);
  void dispatch(std::size_t index, TaskDesc desc);
  void flush_spill(std::size_t index);
  std::size_t reap();                   ///< drain all outboxes
  void schedule_batch();                ///< batch mode: invoke the policy
  sim::SystemView build_view();
  std::size_t route(RoutePolicy policy, double size_mflops);

  RuntimeConfig cfg_;
  std::unique_ptr<sim::SchedulingPolicy> policy_;
  util::Rng rng_;
  double host_mflops_ = 0.0;

  std::vector<std::unique_ptr<Worker>> workers_;
  std::atomic<bool> stop_{false};

  // Batch-mode master state.
  std::deque<workload::Task> unscheduled_;
  std::size_t submitted_ = 0;
  std::size_t completed_ = 0;
  std::size_t invocations_ = 0;
  std::chrono::steady_clock::time_point epoch_;
  std::uint64_t last_completion_ns_ = 0;

  // Serve-mode master state (preallocated once, reused across windows).
  struct Pending {
    workload::TaskId id;
    double size_mflops;
    std::uint64_t due_ns;
  };
  std::vector<Pending> admission_;      ///< circular buffer
  std::size_t admit_head_ = 0;
  std::size_t admit_count_ = 0;
  std::size_t rr_cursor_ = 0;
  workload::TaskId serve_next_id_ = 0;
  std::vector<std::uint8_t> touched_;   ///< workers to notify this round
  LatencyRecorder recorder_;
  bool serve_recording_ = false;        ///< reap() records latencies
};

/// Executes approximately `mflops` million floating-point operations and
/// returns a value that depends on them (defeating dead-code
/// elimination). Exposed for calibration tests.
double burn_mflops(double mflops);

}  // namespace gasched::rt
