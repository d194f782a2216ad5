#include "rt/runtime.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <limits>
#include <stdexcept>
#include <unordered_map>

#include "sim/linpack.hpp"

namespace gasched::rt {

namespace {
using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

// One spin-wait hint: tells the core we are polling, not computing.
inline void cpu_pause() noexcept {
#if defined(__x86_64__) || defined(__i386__)
  __builtin_ia32_pause();
#elif defined(__aarch64__) || defined(__arm__)
  asm volatile("yield" ::: "memory");
#else
  std::atomic_thread_fence(std::memory_order_seq_cst);
#endif
}

constexpr std::size_t kNoWorker = std::numeric_limits<std::size_t>::max();
}  // namespace

double burn_mflops(double mflops) {
  // 4 flops per iteration (two multiply-adds); the volatile sink defeats
  // dead-code elimination.
  const auto iters = static_cast<std::uint64_t>(mflops * 1e6 / 4.0);
  double a = 1.000000007, b = 0.999999991;
  for (std::uint64_t i = 0; i < iters; ++i) {
    a = a * b + 1e-9;
    b = b * a - 1e-9;
  }
  volatile double sink = a + b;
  return sink;
}

RoutePolicy parse_route_policy(const std::string& name) {
  if (name == "rr") return RoutePolicy::kRoundRobin;
  if (name == "least_loaded") return RoutePolicy::kLeastLoaded;
  if (name == "fastest") return RoutePolicy::kShortestDrain;
  throw std::runtime_error("unknown routing policy '" + name +
                           "' (valid: rr, least_loaded, fastest)");
}

Runtime::Runtime(RuntimeConfig cfg,
                 std::unique_ptr<sim::SchedulingPolicy> policy)
    : cfg_(std::move(cfg)), policy_(std::move(policy)), rng_(cfg_.seed) {
  if (!policy_) throw std::invalid_argument("Runtime: null policy");
  if (cfg_.worker_speeds.empty()) cfg_.worker_speeds.assign(4, 1.0);
  for (const double s : cfg_.worker_speeds) {
    if (!(s > 0.0) || s > 1.0) {
      throw std::invalid_argument("Runtime: worker speeds in (0, 1]");
    }
  }
  if (!(cfg_.work_scale > 0.0)) {
    throw std::invalid_argument("Runtime: work_scale must be > 0");
  }
  if (cfg_.ring_capacity < 2) {
    throw std::invalid_argument("Runtime: ring_capacity must be >= 2");
  }

  // Calibrate the host once with the Linpack-style benchmark (paper §3:
  // execution rates are Linpack-measured).
  util::Rng lin_rng(cfg_.seed ^ 0x11AC0FFEEull);
  host_mflops_ = sim::linpack_benchmark(96, lin_rng).mflops;
  if (!(host_mflops_ > 0.0)) host_mflops_ = 1000.0;

  epoch_ = Clock::now();
  workers_.reserve(cfg_.worker_speeds.size());
  for (std::size_t i = 0; i < cfg_.worker_speeds.size(); ++i) {
    auto w = std::make_unique<Worker>(cfg_.ring_capacity);
    w->speed = cfg_.worker_speeds[i];
    w->jitter_rng = util::Rng(cfg_.seed).split(7000 + i);
    workers_.push_back(std::move(w));
  }
  touched_.assign(workers_.size(), 0);
  for (std::size_t i = 0; i < workers_.size(); ++i) {
    workers_[i]->thread = std::thread([this, i] { worker_loop(i); });
  }
}

Runtime::~Runtime() {
  stop_.store(true, std::memory_order_release);
  for (auto& w : workers_) w->parker.notify();
  for (auto& w : workers_) {
    if (w->thread.joinable()) w->thread.join();
  }
}

std::uint64_t Runtime::now_ns() const noexcept {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                           epoch_)
          .count());
}

// ---------------------------------------------------------------------------
// Data plane: worker side.

void Runtime::worker_loop(std::size_t index) {
  Worker& w = *workers_[index];
  TaskDesc desc;
  for (;;) {
    if (w.inbox.try_pop(desc)) {
      run_task(w, desc);
      continue;
    }
    // Inbox empty: spin for a while — under load the next descriptor
    // arrives within the spin budget and we never touch a lock.
    bool got = false;
    for (std::size_t polls = cfg_.spin_polls; polls != 0; --polls) {
      cpu_pause();
      if (w.inbox.try_pop(desc)) {
        got = true;
        break;
      }
      if (stop_.load(std::memory_order_relaxed)) break;
    }
    if (got) {
      run_task(w, desc);
      continue;
    }
    if (stop_.load(std::memory_order_acquire)) return;
    // Idle: park. prepare()/consumer_empty()/park() is the lost-wakeup-
    // safe handshake documented in util/park.hpp.
    w.parker.prepare();
    if (stop_.load(std::memory_order_acquire) || !w.inbox.consumer_empty()) {
      w.parker.cancel();
      continue;
    }
    w.parker.park();
  }
}

void Runtime::run_task(Worker& w, const TaskDesc& desc) {
  const std::uint64_t start = now_ns();
  double slept = 0.0;
  if (desc.latency_s > 0.0) {
    std::this_thread::sleep_for(
        std::chrono::duration<double>(desc.latency_s));
    slept = desc.latency_s;
  }
  const auto t0 = Clock::now();
  burn_mflops(desc.size_mflops * cfg_.work_scale / w.speed);
  const double exec = seconds_since(t0);

  Completion c;
  c.id = desc.id;
  c.size_mflops = desc.size_mflops;
  c.latency_s = slept;
  c.exec_s = exec;
  c.admit_ns = desc.admit_ns;
  c.dispatch_ns = desc.dispatch_ns;
  c.start_ns = start;
  c.done_ns = now_ns();
  // Cannot block in practice: the master caps in-flight descriptors at
  // the ring capacity, so the outbox always has room. The spin is a
  // safety net, not a protocol.
  while (!w.outbox.try_push(c)) cpu_pause();
}

// ---------------------------------------------------------------------------
// Control plane: master side (single-threaded, no locks anywhere below).

double Runtime::emulated_latency(Worker& w, std::size_t index) {
  if (index >= cfg_.dispatch_latency.size()) return 0.0;
  const double mean = cfg_.dispatch_latency[index];
  // A zero mean draws nothing: the zero-latency path is RNG-stream-free.
  if (!(mean > 0.0)) return 0.0;
  return w.jitter_rng.uniform(0.8 * mean, 1.2 * mean);
}

void Runtime::dispatch(std::size_t index, TaskDesc desc) {
  Worker& w = *workers_[index];
  w.pending_mflops += desc.size_mflops;
  if (w.spill.empty() && w.inflight < w.inbox.capacity()) {
    ++w.inflight;
    w.inbox.try_push(desc);  // cannot fail: inflight < capacity
  } else {
    w.spill.push_back(desc);  // batch mode overflow staging
  }
}

void Runtime::flush_spill(std::size_t index) {
  Worker& w = *workers_[index];
  bool any = false;
  while (!w.spill.empty() && w.inflight < w.inbox.capacity()) {
    TaskDesc desc = w.spill.front();
    w.spill.pop_front();
    desc.dispatch_ns = now_ns();
    ++w.inflight;
    w.inbox.try_push(desc);
    any = true;
  }
  if (any) w.parker.notify();
}

std::size_t Runtime::reap() {
  std::size_t reaped = 0;
  for (std::size_t j = 0; j < workers_.size(); ++j) {
    Worker& w = *workers_[j];
    Completion c;
    while (w.outbox.try_pop(c)) {
      --w.inflight;
      w.pending_mflops -= c.size_mflops;
      if (w.pending_mflops < 0.0) w.pending_mflops = 0.0;
      w.stats.tasks += 1;
      w.stats.work_mflops += c.size_mflops;
      w.stats.busy_seconds += c.exec_s;
      w.stats.comm_seconds += c.latency_s;
      if (c.latency_s > 0.0) w.comm_est.observe(c.latency_s);
      if (c.exec_s > 0.0) w.rate_est.observe(c.size_mflops / c.exec_s);
      ++completed_;
      last_completion_ns_ = std::max(last_completion_ns_, c.done_ns);
      if (serve_recording_) {
        recorder_.record_queue(c.start_ns - c.dispatch_ns);
        recorder_.record_sojourn(c.done_ns - c.admit_ns);
      }
      ++reaped;
    }
    if (!w.spill.empty()) flush_spill(j);
  }
  return reaped;
}

sim::SystemView Runtime::build_view() {
  sim::SystemView view;
  view.now = seconds_since(epoch_);
  view.procs.resize(workers_.size());
  for (std::size_t j = 0; j < workers_.size(); ++j) {
    auto& w = *workers_[j];
    auto& pv = view.procs[j];
    pv.id = static_cast<sim::ProcId>(j);
    // Prior: calibrated host rate, scaled by the worker's speed factor
    // and the work scale (nominal MFLOPs per wall second).
    const double prior = host_mflops_ * w.speed / cfg_.work_scale;
    pv.rate = w.rate_est.value_or(prior);
    pv.pending_mflops = w.pending_mflops;
    pv.comm_estimate = w.comm_est.value_or(0.0);
    pv.comm_observations = w.comm_est.count();
  }
  return view;
}

void Runtime::schedule_batch() {
  if (unscheduled_.empty()) return;
  // The policy consumes tasks from the queue and returns their ids;
  // index the payloads first so assignments can be materialised.
  std::unordered_map<workload::TaskId, workload::Task> index;
  index.reserve(unscheduled_.size());
  for (const auto& t : unscheduled_) index.emplace(t.id, t);

  const sim::SystemView view = build_view();
  const std::size_t queued = unscheduled_.size();
  const sim::BatchAssignment assignment =
      policy_->invoke(view, unscheduled_, rng_);
  ++invocations_;
  // The sim::SchedulingPolicy contract, checked before anything is
  // dispatched: an id assigned but left queued would run twice, and a
  // task taken but not assigned would leave drain() waiting forever.
  if (unscheduled_.size() > queued) {
    throw std::runtime_error("Runtime: policy added tasks to the queue");
  }
  const std::size_t consumed = queued - unscheduled_.size();
  if (assignment.total() != consumed) {
    throw std::runtime_error(
        "Runtime: policy assigned " + std::to_string(assignment.total()) +
        " tasks but took " + std::to_string(consumed) + " off the queue");
  }
  if (assignment.per_proc.size() > workers_.size()) {
    throw std::runtime_error("Runtime: assignment names unknown worker");
  }
  const std::uint64_t now = now_ns();
  for (std::size_t j = 0; j < assignment.per_proc.size(); ++j) {
    bool any = false;
    for (const workload::TaskId id : assignment.per_proc[j]) {
      const auto it = index.find(id);
      if (it == index.end()) {
        throw std::runtime_error("Runtime: assignment names unknown task");
      }
      TaskDesc desc;
      desc.id = id;
      desc.size_mflops = it->second.size_mflops;
      desc.latency_s = emulated_latency(*workers_[j], j);
      desc.admit_ns = now;
      desc.dispatch_ns = now;
      dispatch(j, desc);
      any = true;
    }
    if (any) workers_[j]->parker.notify();
  }
}

void Runtime::submit(const workload::Task& task) {
  reap();  // keep pending-load estimates fresh while submissions stream in
  unscheduled_.push_back(task);
  ++submitted_;
  if (unscheduled_.size() >= cfg_.min_batch_trigger) schedule_batch();
}

RuntimeResult Runtime::drain() {
  schedule_batch();  // flush anything below the batch trigger
  while (completed_ < submitted_) {
    const std::size_t reaped = reap();
    if (reaped > 0 && !unscheduled_.empty()) {
      // Mirror the engine's protocol: an idling worker with unscheduled
      // tasks outstanding triggers another scheduling round, so batch
      // policies that consumed only part of the queue make progress.
      for (const auto& w : workers_) {
        if (w->inflight == 0 && w->spill.empty()) {
          schedule_batch();
          break;
        }
      }
    }
    if (reaped == 0) std::this_thread::yield();
  }

  RuntimeResult result;
  result.makespan_seconds = static_cast<double>(last_completion_ns_) * 1e-9;
  result.tasks_completed = completed_;
  result.scheduler_invocations = invocations_;
  result.per_worker.reserve(workers_.size());
  for (const auto& w : workers_) result.per_worker.push_back(w->stats);
  return result;
}

// ---------------------------------------------------------------------------
// Serve mode.

std::size_t Runtime::route(RoutePolicy policy, double size_mflops) {
  const std::size_t n = workers_.size();
  switch (policy) {
    case RoutePolicy::kRoundRobin: {
      for (std::size_t k = 0; k < n; ++k) {
        const std::size_t j = (rr_cursor_ + k) % n;
        if (workers_[j]->inflight < workers_[j]->inbox.capacity()) {
          rr_cursor_ = (j + 1) % n;
          return j;
        }
      }
      return kNoWorker;
    }
    case RoutePolicy::kLeastLoaded: {
      std::size_t best = kNoWorker;
      double best_pending = 0.0;
      for (std::size_t j = 0; j < n; ++j) {
        Worker& w = *workers_[j];
        if (w.inflight >= w.inbox.capacity()) continue;
        if (best == kNoWorker || w.pending_mflops < best_pending) {
          best = j;
          best_pending = w.pending_mflops;
        }
      }
      return best;
    }
    case RoutePolicy::kShortestDrain: {
      std::size_t best = kNoWorker;
      double best_eta = 0.0;
      for (std::size_t j = 0; j < n; ++j) {
        Worker& w = *workers_[j];
        if (w.inflight >= w.inbox.capacity()) continue;
        const double prior = host_mflops_ * w.speed / cfg_.work_scale;
        const double rate = w.rate_est.value_or(prior);
        const double eta =
            rate > 0.0 ? (w.pending_mflops + size_mflops) / rate : 1e300;
        if (best == kNoWorker || eta < best_eta) {
          best = j;
          best_eta = eta;
        }
      }
      return best;
    }
  }
  return kNoWorker;
}

ServeResult Runtime::serve(const ServeConfig& cfg,
                           const workload::SizeDistribution& sizes) {
  if (!(cfg.duration_s > 0.0)) {
    throw std::invalid_argument("serve: duration must be > 0");
  }
  if (!(cfg.rate > 0.0)) {
    throw std::invalid_argument("serve: rate must be > 0");
  }
  if (cfg.admission_batch == 0 || cfg.queue_capacity == 0) {
    throw std::invalid_argument(
        "serve: admission_batch and queue_capacity must be >= 1");
  }
  if (!unscheduled_.empty() || completed_ != submitted_) {
    throw std::logic_error("serve: pending batch-mode work; drain() first");
  }
  const RoutePolicy policy = parse_route_policy(cfg.policy);

  // Setup (allocations allowed here; the steady-state loop below is
  // allocation- and lock-free).
  std::shared_ptr<const workload::RateFunction> rate_fn = cfg.rate_function;
  if (!rate_fn && cfg.arrival != "constant" && cfg.arrival != "" &&
      cfg.arrival != "poisson") {
    rate_fn = workload::make_rate_function(cfg.arrival, cfg.rate,
                                           cfg.arrival_params);
  }
  workload::ArrivalSource source =
      rate_fn ? workload::ArrivalSource::thinned(*rate_fn)
              : workload::ArrivalSource::constant(1.0 / cfg.rate);
  admission_.resize(cfg.queue_capacity);
  admit_head_ = 0;
  admit_count_ = 0;
  rr_cursor_ = 0;
  recorder_.reset();
  serve_recording_ = true;
  std::vector<WorkerStats> baseline(workers_.size());
  for (std::size_t j = 0; j < workers_.size(); ++j) {
    baseline[j] = workers_[j]->stats;
  }
  const std::uint64_t completed_at_start = completed_;

  std::uint64_t offered = 0, admitted = 0, shed = 0;
  const std::uint64_t t0 = now_ns();
  const double duration = cfg.duration_s;
  bool have_pending = false;
  double pending_arrival_s = 0.0;

  // Steady-state serving loop: admit due arrivals, route a batch into
  // the rings, reap completions. Zero allocations, zero mutexes.
  for (;;) {
    const double elapsed = static_cast<double>(now_ns() - t0) * 1e-9;
    const bool window_open = elapsed < duration;

    // 1) Admission: pull every arrival that is due by now.
    if (window_open) {
      for (;;) {
        if (!have_pending) {
          pending_arrival_s = source.next(rng_);
          have_pending = true;
        }
        if (pending_arrival_s > elapsed || pending_arrival_s > duration) {
          break;  // not due yet (or beyond the window)
        }
        ++offered;
        if (admit_count_ == cfg.queue_capacity) {
          if (cfg.shed) {
            ++shed;
            have_pending = false;
            continue;  // drop this arrival, keep the clock running
          }
          --offered;  // block: retry this arrival once space frees
          break;
        }
        Pending& p =
            admission_[(admit_head_ + admit_count_) % cfg.queue_capacity];
        p.id = serve_next_id_++;
        p.size_mflops = sizes.sample(rng_);
        p.due_ns = t0 + static_cast<std::uint64_t>(pending_arrival_s * 1e9);
        ++admit_count_;
        ++admitted;
        have_pending = false;
      }
    }

    // 2) Dispatch up to one admission batch into the rings.
    std::size_t dispatched = 0;
    while (dispatched < cfg.admission_batch && admit_count_ > 0) {
      const Pending& p = admission_[admit_head_];
      const std::size_t j = route(policy, p.size_mflops);
      if (j == kNoWorker) break;  // every ring full: backpressure
      const std::uint64_t dnow = now_ns();
      TaskDesc desc;
      desc.id = p.id;
      desc.size_mflops = p.size_mflops;
      desc.latency_s = emulated_latency(*workers_[j], j);
      desc.admit_ns = p.due_ns;
      desc.dispatch_ns = dnow;
      dispatch(j, desc);
      ++submitted_;
      recorder_.record_sched(dnow - p.due_ns);
      touched_[j] = 1;
      admit_head_ = (admit_head_ + 1) % cfg.queue_capacity;
      --admit_count_;
      ++dispatched;
    }
    if (dispatched > 0) {
      for (std::size_t j = 0; j < workers_.size(); ++j) {
        if (touched_[j]) {
          workers_[j]->parker.notify();
          touched_[j] = 0;
        }
      }
    }

    // 3) Reap completions (records queueing + sojourn latency).
    const std::size_t reaped = reap();

    // Exit: window closed and everything admitted has completed.
    if (!window_open && admit_count_ == 0 && completed_ == submitted_) {
      // A blocked arrival that was due inside the window but never found
      // queue space counts as shed.
      if (have_pending && pending_arrival_s <= duration && !cfg.shed) {
        ++offered;
        ++shed;
        have_pending = false;
      }
      break;
    }
    if (dispatched == 0 && reaped == 0) cpu_pause();
  }

  serve_recording_ = false;
  const double elapsed_total = static_cast<double>(now_ns() - t0) * 1e-9;

  ServeResult r;
  r.duration_s = elapsed_total;
  r.offered = offered;
  r.admitted = admitted;
  r.shed = shed;
  r.completed = completed_ - completed_at_start;
  r.throughput_per_sec =
      elapsed_total > 0.0 ? static_cast<double>(r.completed) / elapsed_total
                          : 0.0;
  r.sched_latency = recorder_.sched();
  r.queue_latency = recorder_.queue();
  r.sojourn = recorder_.sojourn();
  r.per_worker.resize(workers_.size());
  for (std::size_t j = 0; j < workers_.size(); ++j) {
    const WorkerStats& now_stats = workers_[j]->stats;
    const WorkerStats& base = baseline[j];
    r.per_worker[j].tasks = now_stats.tasks - base.tasks;
    r.per_worker[j].work_mflops = now_stats.work_mflops - base.work_mflops;
    r.per_worker[j].busy_seconds =
        now_stats.busy_seconds - base.busy_seconds;
    r.per_worker[j].comm_seconds =
        now_stats.comm_seconds - base.comm_seconds;
  }
  return r;
}

}  // namespace gasched::rt
