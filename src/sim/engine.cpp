#include "sim/engine.hpp"

#include <algorithm>
#include <bit>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <utility>

namespace gasched::sim {

Engine::Engine(const Cluster& cluster, const workload::Workload& workload,
               SchedulingPolicy& policy, util::Rng rng,
               const EngineConfig& cfg)
    : cluster_(cluster), policy_(policy), cfg_(cfg), rng_(std::move(rng)) {
  const std::size_t M = cluster_.size();
  if (M == 0) throw std::invalid_argument("simulate: empty cluster");
  tasks_ = workload.tasks;

  id_to_index_.reserve(tasks_.size());
  for (std::size_t i = 0; i < tasks_.size(); ++i) {
    if (!id_to_index_.emplace(tasks_[i].id, i).second) {
      throw std::invalid_argument("simulate: duplicate task id");
    }
  }

  procs_.resize(M);
  for (auto& pr : procs_) {
    pr.rate_est = util::Smoother(cfg_.rate_nu);
    pr.comm_est = util::Smoother(cfg_.comm_nu);
  }
  // Every entry starts stale, so the first invocation writes all M.
  view_.procs.resize(M);
  live_.reserve(M);
  for (std::size_t j = 0; j < M; ++j) touch(j);

  if (cfg_.record_task_trace) {
    records_.resize(tasks_.size());
    for (std::size_t i = 0; i < tasks_.size(); ++i) {
      records_[i].id = tasks_[i].id;
      records_[i].arrival = tasks_[i].arrival_time;
      records_[i].attempts = 0;
    }
  }

  // Every arrival is pre-seeded, so the peak pending-event count is known
  // up front; pre-sizing the arena keeps steady state allocation-free.
  const std::size_t outages =
      cfg_.failures ? cfg_.failures->total_outages() : 0;
  events_.reserve(tasks_.size() + M + 2 * outages);

  // Seed the timeline: task arrivals, then one initial request per
  // processor (sequenced after simultaneous arrivals so the first
  // scheduling decision sees the t=0 workload), then outages.
  for (std::size_t i = 0; i < tasks_.size(); ++i) {
    post(tasks_[i].arrival_time, EventKind::kArrival, kInvalidProc, i);
  }
  for (std::size_t j = 0; j < M; ++j) {
    post(0.0, EventKind::kRequest, static_cast<ProcId>(j));
  }
  if (cfg_.failures != nullptr) {
    for (std::size_t j = 0; j < M; ++j) {
      for (const Outage& o : cfg_.failures->outages(static_cast<ProcId>(j))) {
        post(o.down, EventKind::kFail, static_cast<ProcId>(j));
        post(o.up, EventKind::kRecover, static_cast<ProcId>(j));
      }
    }
  }
}

double Engine::remaining_exec_mflops(const ProcRuntime& pr) const {
  if (!pr.executing) return 0.0;
  const double span = pr.exec_end - pr.exec_start;
  if (span <= 0.0) return 0.0;
  const double frac = (pr.exec_end - now_) / span;
  return pr.exec_mflops * std::max(0.0, std::min(1.0, frac));
}

ProcessorView Engine::view_entry(std::size_t j) const {
  const auto& pr = procs_[j];
  ProcessorView pv;
  pv.id = static_cast<ProcId>(j);
  pv.rate = pr.rate_est.value_or(cluster_.processors[j].base_rate);
  pv.pending_mflops =
      pr.future_mflops + pr.inflight_mflops + remaining_exec_mflops(pr);
  pv.comm_estimate = pr.comm_est.value_or(0.0);
  pv.comm_observations = pr.comm_est.count();
  return pv;
}

void Engine::touch(std::size_t j) {
  auto& pr = procs_[j];
  if (pr.live) return;
  pr.live = true;
  live_.push_back(j);
}

// Rewrites the live entries and keeps on the list only the processors
// still executing: their remaining work moves with now_. Every other
// entry stays exact until an event handler touches its processor again.
void Engine::refresh_view() {
  view_.now = now_;
  std::size_t kept = 0;
  for (const std::size_t j : live_) {
    view_.procs[j] = view_entry(j);
    if (procs_[j].executing) {
      live_[kept++] = j;
    } else {
      procs_[j].live = false;
    }
  }
  live_.resize(kept);
#ifndef NDEBUG
  check_view();
#endif
}

namespace {
bool same_bits(double a, double b) {
  return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}
}  // namespace

// The incrementally refreshed view must equal a full rebuild bit for bit,
// or some event handler changed a view input without touching its
// processor. Run after every refresh in checked builds.
void Engine::check_view() const {
  for (std::size_t j = 0; j < procs_.size(); ++j) {
    const ProcessorView want = view_entry(j);
    const ProcessorView& got = view_.procs[j];
    if (got.id != want.id || !same_bits(got.rate, want.rate) ||
        !same_bits(got.pending_mflops, want.pending_mflops) ||
        !same_bits(got.comm_estimate, want.comm_estimate) ||
        got.comm_observations != want.comm_observations) {
      throw std::logic_error("Engine: stale view entry for processor " +
                             std::to_string(j));
    }
  }
}

void Engine::apply_assignment(const BatchAssignment& assignment,
                              std::size_t consumed) {
  if (assignment.per_proc.size() > procs_.size()) {
    throw std::runtime_error("simulate: assignment names unknown processor");
  }
  std::size_t applied = 0;
  for (std::size_t j = 0; j < assignment.per_proc.size(); ++j) {
    const auto& ids = assignment.per_proc[j];
    if (ids.empty()) continue;
    applied += ids.size();
    auto& pr = procs_[j];
    for (const workload::TaskId id : ids) {
      const auto it = id_to_index_.find(id);
      if (it == id_to_index_.end()) {
        throw std::runtime_error("simulate: assignment names unknown task");
      }
      pr.future.push_back(it->second);
      pr.future_mflops += tasks_[it->second].size_mflops;
      ++future_count_;
    }
    touch(j);
    if (pr.parked && !pr.down) {
      pr.parked = false;
      post(now_, EventKind::kRequest, static_cast<ProcId>(j));
    }
  }
  if (applied != consumed) {
    throw std::runtime_error(
        "simulate: policy assigned " + std::to_string(applied) +
        " tasks but took " + std::to_string(consumed) + " off the queue");
  }
}

void Engine::try_schedule() {
  if (unscheduled_.empty()) return;
  refresh_view();
  const std::size_t queued = unscheduled_.size();
  const auto t0 = std::chrono::steady_clock::now();
  BatchAssignment assignment = policy_.invoke(view_, unscheduled_, rng_);
  const auto t1 = std::chrono::steady_clock::now();
  const double wall = std::chrono::duration<double>(t1 - t0).count();
  policy_wall_ += wall;
  ++invocations_;
  if (unscheduled_.size() > queued) {
    throw std::runtime_error("simulate: policy added tasks to the queue");
  }
  const std::size_t consumed = queued - unscheduled_.size();
  if (cfg_.sched_time_scale > 0.0) {
    // The dedicated scheduler processor takes simulated time to compute
    // the schedule; the assignment lands later.
    pending_assignments_.push_back({std::move(assignment), consumed});
    post(now_ + cfg_.sched_time_scale * wall, EventKind::kAssign,
         kInvalidProc, pending_assignments_.size() - 1);
  } else {
    apply_assignment(assignment, consumed);
  }
}

// A failed processor returns everything it holds to the scheduler.
std::size_t Engine::requeue_holdings(std::size_t j) {
  auto& pr = procs_[j];
  touch(j);
  std::size_t returned = 0;
  if (pr.executing) {
    // Work done so far is wasted but still counts as processing time.
    pr.stats.busy_time += std::max(0.0, now_ - pr.exec_start);
    unscheduled_.push_back(tasks_[pr.exec_task]);
    pr.executing = false;
    pr.exec_mflops = 0.0;
    ++returned;
  }
  if (pr.inflight) {
    unscheduled_.push_back(tasks_[pr.inflight_task]);
    pr.inflight = false;
    pr.inflight_mflops = 0.0;
    ++returned;
  }
  while (!pr.future.empty()) {
    unscheduled_.push_back(tasks_[pr.future.front()]);
    pr.future.pop_front();
    --future_count_;
    ++returned;
  }
  pr.future_mflops = 0.0;
  requeued_ += returned;
  return returned;
}

// Pops the head of `proc`'s future queue and puts it on the wire.
void Engine::start_dispatch(ProcId proc) {
  auto& pr = procs_[static_cast<std::size_t>(proc)];
  const std::size_t ti = pr.future.front();
  pr.future.pop_front();
  --future_count_;
  pr.future_mflops -= tasks_[ti].size_mflops;
  if (pr.future_mflops < 0.0) pr.future_mflops = 0.0;
  const double cost = cluster_.comm->sample(proc, now_, rng_);
  pr.comm_est.observe(cost);
  pr.stats.comm_time += cost;
  pr.inflight = true;
  pr.inflight_task = ti;
  pr.inflight_mflops = tasks_[ti].size_mflops;
  touch(static_cast<std::size_t>(proc));
  if (cfg_.record_task_trace) {
    records_[ti].dispatch = now_;
    records_[ti].comm_cost = cost;
    records_[ti].attempts += 1;
  }
  if (cfg_.serial_dispatch) link_busy_ = true;
  post(now_ + cost, EventKind::kDelivered, proc, ti, pr.epoch);
}

std::size_t Engine::event_budget() const {
  if (cfg_.max_event_factor == 0) return 0;
  return cfg_.max_event_factor *
         (tasks_.size() + procs_.size() +
          (cfg_.failures ? cfg_.failures->total_outages() : 0) + 1);
}

void Engine::step() {
  const Ev ev = events_.top();
  now_ = events_.top_time();
  events_.pop();
  if (const std::size_t budget = event_budget();
      budget != 0 && ++processed_ > budget) {
    throw std::runtime_error("simulate: event budget exceeded (livelock?)");
  }
  dispatch(ev);
}

void Engine::dispatch(const Ev& ev) {
  switch (ev.kind) {
    case EventKind::kArrival: {
      unscheduled_.push_back(tasks_[ev.payload]);
      // Coalesce simultaneous arrivals into one scheduling decision.
      const bool more_arrivals_now =
          !events_.empty() && events_.top().kind == EventKind::kArrival &&
          events_.top_time() == now_;
      if (!more_arrivals_now) try_schedule();
      break;
    }
    case EventKind::kRequest: {
      auto& pr = procs_[static_cast<std::size_t>(ev.proc)];
      if (pr.down) break;  // re-posted on recovery
      if (pr.inflight || pr.executing) break;  // stale duplicate
      if (pr.future.empty()) {
        pr.parked = true;
        if (!unscheduled_.empty()) try_schedule();
        break;
      }
      if (cfg_.serial_dispatch && link_busy_) {
        link_waiting_.push_back(ev.proc);
        break;
      }
      start_dispatch(ev.proc);
      break;
    }
    case EventKind::kDelivered: {
      auto& pr = procs_[static_cast<std::size_t>(ev.proc)];
      if (cfg_.serial_dispatch) {
        // The uplink frees regardless of whether the receiver survived.
        link_busy_ = false;
        while (!link_waiting_.empty()) {
          const ProcId next_proc = link_waiting_.front();
          link_waiting_.pop_front();
          auto& npr = procs_[static_cast<std::size_t>(next_proc)];
          if (npr.down || npr.inflight || npr.executing) {
            continue;  // state changed while queued at the link
          }
          if (npr.future.empty()) {
            // Its queue was drained (e.g. failure requeue elsewhere):
            // park so a future assignment wakes it up again.
            npr.parked = true;
            continue;
          }
          start_dispatch(next_proc);
          break;
        }
      }
      if (ev.epoch != pr.epoch) break;  // failed mid-transfer; requeued
      const auto& proc =
          cluster_.processors[static_cast<std::size_t>(ev.proc)];
      pr.inflight = false;
      pr.inflight_mflops = 0.0;
      const double duration = integrate_exec_time(
          *proc.availability, proc.base_rate, tasks_[ev.payload].size_mflops,
          now_, cfg_.avail_dt);
      pr.executing = true;
      pr.exec_task = ev.payload;
      pr.exec_mflops = tasks_[ev.payload].size_mflops;
      pr.exec_start = now_;
      pr.exec_end = now_ + duration;
      touch(static_cast<std::size_t>(ev.proc));
      if (cfg_.record_task_trace) records_[ev.payload].start = now_;
      post(now_ + duration, EventKind::kCompleted, ev.proc, ev.payload,
           pr.epoch);
      break;
    }
    case EventKind::kCompleted: {
      auto& pr = procs_[static_cast<std::size_t>(ev.proc)];
      if (ev.epoch != pr.epoch) break;  // failed mid-execution; requeued
      const double duration = pr.exec_end - pr.exec_start;
      if (duration > 0.0) {
        pr.rate_est.observe(tasks_[ev.payload].size_mflops / duration);
      }
      pr.stats.busy_time += duration;
      pr.executing = false;
      pr.exec_mflops = 0.0;
      pr.stats.tasks += 1;
      pr.stats.work_mflops += tasks_[ev.payload].size_mflops;
      ++completed_;
      response_sum_ += now_ - tasks_[ev.payload].arrival_time;
      makespan_ = std::max(makespan_, now_);
      if (cfg_.record_task_trace) {
        records_[ev.payload].completion = now_;
        records_[ev.payload].proc = ev.proc;
      }
      post(now_, EventKind::kRequest, ev.proc);
      break;
    }
    case EventKind::kFail: {
      auto& pr = procs_[static_cast<std::size_t>(ev.proc)];
      if (pr.down) break;
      pr.down = true;
      pr.parked = false;
      ++pr.epoch;
      pr.stats.failures += 1;
      const std::size_t returned =
          requeue_holdings(static_cast<std::size_t>(ev.proc));
      if (returned > 0) try_schedule();
      break;
    }
    case EventKind::kRecover: {
      auto& pr = procs_[static_cast<std::size_t>(ev.proc)];
      if (!pr.down) break;
      pr.down = false;
      post(now_, EventKind::kRequest, ev.proc);
      break;
    }
    case EventKind::kAssign: {
      auto& pending = pending_assignments_[ev.payload];
      apply_assignment(pending.assignment, pending.consumed);
      pending.assignment = BatchAssignment{};  // free memory
      break;
    }
  }
}

bool Engine::kick() {
  try_schedule();
  return has_events();
}

void Engine::inject_task(const workload::Task& task, SimTime at) {
  // take_unscheduled() erased every exported id, so a task migrating
  // back always gets a fresh entry; a clash names a task still owned here.
  const std::size_t i = tasks_.size();
  if (!id_to_index_.emplace(task.id, i).second) {
    throw std::invalid_argument("inject_task: duplicate task id");
  }
  tasks_.push_back(task);
  if (cfg_.record_task_trace) {
    TaskRecord rec;
    rec.id = task.id;
    rec.arrival = task.arrival_time;
    rec.attempts = 0;
    records_.push_back(rec);
  }
  post(std::max(at, now_), EventKind::kArrival, kInvalidProc, i);
}

std::vector<workload::Task> Engine::take_unscheduled(std::size_t max_tasks) {
  std::vector<workload::Task> taken;
  const std::size_t n = std::min(max_tasks, unscheduled_.size());
  taken.reserve(n);
  for (std::size_t k = 0; k < n; ++k) {
    taken.push_back(std::move(unscheduled_.back()));
    unscheduled_.pop_back();
    id_to_index_.erase(taken.back().id);
    ++exported_;
  }
  return taken;
}

SimulationResult Engine::result() const {
  SimulationResult result;
  result.makespan = makespan_;
  result.tasks_completed = completed_;
  result.per_proc.resize(procs_.size());
  for (std::size_t j = 0; j < procs_.size(); ++j) {
    result.per_proc[j] = procs_[j].stats;
  }
  result.scheduler_invocations = invocations_;
  result.scheduler_wall_seconds = policy_wall_;
  result.mean_response_time =
      completed_ > 0 ? response_sum_ / static_cast<double>(completed_) : 0.0;
  result.tasks_requeued = requeued_;
  if (cfg_.record_task_trace) result.task_trace = records_;
  return result;
}

SimulationResult Engine::run() {
  while (completed_ + exported_ < tasks_.size()) {
    if (events_.empty()) {
      // No pending events but work remains: give the policy one more
      // chance (e.g. everything parked after a burst), else the protocol
      // is wedged.
      try_schedule();
      if (events_.empty()) {
        throw std::runtime_error(
            "simulate: deadlock — tasks remain but no events pending "
            "(policy " +
            policy_.name() + " assigned nothing)");
      }
      continue;
    }
    step();
  }
  return result();
}

SimulationResult simulate(const Cluster& cluster,
                          const workload::Workload& workload,
                          SchedulingPolicy& policy, util::Rng rng,
                          const EngineConfig& cfg) {
  Engine engine(cluster, workload, policy, std::move(rng), cfg);
  return engine.run();
}

}  // namespace gasched::sim
