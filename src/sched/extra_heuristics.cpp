#include "sched/extra_heuristics.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <numeric>
#include <utility>
#include <stdexcept>

namespace gasched::sched {

sim::ProcId MinimumExecutionTimeRule::place(const workload::Task& task,
                                            const sim::SystemView& view,
                                            LoadView, util::Rng&) {
  sim::ProcId best = 0;
  double best_exec = std::numeric_limits<double>::infinity();
  for (std::size_t j = 0; j < view.size(); ++j) {
    const double rate = view.procs[j].rate;
    if (!(rate > 0.0)) continue;
    const double exec = task.size_mflops / rate;
    if (exec < best_exec) {
      best_exec = exec;
      best = static_cast<sim::ProcId>(j);
    }
  }
  return best;
}

KPercentBestRule::KPercentBestRule(double percent) : percent_(percent) {
  if (!(percent > 0.0) || percent > 100.0) {
    throw std::invalid_argument("KPercentBestRule: percent in (0, 100]");
  }
}

std::string KPercentBestRule::name() const {
  return "KPB" + std::to_string(static_cast<int>(percent_));
}

sim::ProcId KPercentBestRule::place(const workload::Task& task,
                                    const sim::SystemView& view,
                                    LoadView loads, util::Rng&) {
  const std::size_t M = view.size();
  // Rank processors by execution time for this task (fastest first). With
  // uniform task/rate structure the rank is rate-descending, so sort once;
  // the ranking buffer is a reused member, not a per-task allocation.
  order_.resize(M);
  std::iota(order_.begin(), order_.end(), 0);
  std::sort(order_.begin(), order_.end(), [&](std::size_t a, std::size_t b) {
    return view.procs[a].rate > view.procs[b].rate;
  });
  const auto subset = std::max<std::size_t>(
      1, static_cast<std::size_t>(
             std::ceil(percent_ / 100.0 * static_cast<double>(M))));
  sim::ProcId best = static_cast<sim::ProcId>(order_[0]);
  double best_finish = std::numeric_limits<double>::infinity();
  for (std::size_t r = 0; r < subset; ++r) {
    const std::size_t j = order_[r];
    const double rate = view.procs[j].rate;
    if (!(rate > 0.0)) continue;
    const double finish = (loads[j] + task.size_mflops) / rate;
    if (finish < best_finish) {
      best_finish = finish;
      best = static_cast<sim::ProcId>(j);
    }
  }
  return best;
}

SufferagePolicy::SufferagePolicy(std::size_t batch_size)
    : batch_size_(batch_size) {
  if (batch_size == 0) {
    throw std::invalid_argument("SufferagePolicy: batch_size >= 1");
  }
}

sim::BatchAssignment SufferagePolicy::invoke(
    const sim::SystemView& view, std::deque<workload::Task>& queue,
    util::Rng&) {
  auto assignment = sim::BatchAssignment::empty(view.size());
  if (queue.empty()) return assignment;

  std::vector<workload::Task> batch;
  take_batch(queue, batch_size_, batch);
  std::vector<double> pending;
  copy_loads(view, pending);
  std::vector<bool> done(batch.size(), false);

  for (std::size_t assigned = 0; assigned < batch.size(); ++assigned) {
    // For each unassigned task: best completion, second best, sufferage.
    double best_sufferage = -1.0;
    std::size_t pick = 0;
    sim::ProcId pick_proc = 0;
    for (std::size_t i = 0; i < batch.size(); ++i) {
      if (done[i]) continue;
      double c1 = std::numeric_limits<double>::infinity();  // best
      double c2 = std::numeric_limits<double>::infinity();  // second best
      sim::ProcId p1 = 0;
      for (std::size_t j = 0; j < view.size(); ++j) {
        const double rate = view.procs[j].rate;
        if (!(rate > 0.0)) continue;
        const double c = (pending[j] + batch[i].size_mflops) / rate;
        if (c < c1) {
          c2 = c1;
          c1 = c;
          p1 = static_cast<sim::ProcId>(j);
        } else if (c < c2) {
          c2 = c;
        }
      }
      const double sufferage = std::isfinite(c2) ? c2 - c1 : c1;
      if (sufferage > best_sufferage) {
        best_sufferage = sufferage;
        pick = i;
        pick_proc = p1;
      }
    }
    done[pick] = true;
    assignment.per_proc[static_cast<std::size_t>(pick_proc)].push_back(
        batch[pick].id);
    pending[static_cast<std::size_t>(pick_proc)] += batch[pick].size_mflops;
  }
  return assignment;
}

sim::ProcId OpportunisticLoadBalancingRule::place(const workload::Task&,
                                                  const sim::SystemView& view,
                                                  LoadView loads, util::Rng&) {
  // Earliest-available machine: smallest drain time of the already
  // assigned load. Unlike LL this accounts for processor speed; unlike EF
  // it ignores the execution time of the task being placed. That is the
  // earliest-finish kernel for a zero-size task: fl(L_j + 0) is L_j, or
  // +0 for L_j = −0, which divides and compares the same.
  return earliest_finish(view, loads, 0.0);
}

DuplexPolicy::DuplexPolicy(std::size_t batch_size) : batch_size_(batch_size) {
  if (batch_size == 0) {
    throw std::invalid_argument("DuplexPolicy: batch_size >= 1");
  }
}

namespace {

/// Estimated makespan of a final load vector: the largest drain time.
double drain_makespan(const sim::SystemView& view,
                      const std::vector<double>& loads) {
  double makespan = 0.0;
  for (std::size_t j = 0; j < view.size(); ++j) {
    const double rate = view.procs[j].rate;
    if (rate > 0.0) makespan = std::max(makespan, loads[j] / rate);
  }
  return makespan;
}

}  // namespace

sim::BatchAssignment DuplexPolicy::invoke(const sim::SystemView& view,
                                          std::deque<workload::Task>& queue,
                                          util::Rng&) {
  if (queue.empty()) return sim::BatchAssignment::empty(view.size());
  take_batch(queue, batch_size_, batch_);
  order_ = batch_;
  sort_by_size(order_, /*descending=*/false);
  auto mm = place_earliest_finish(view, order_, loads_);
  const double mm_makespan = drain_makespan(view, loads_);
  order_ = batch_;
  sort_by_size(order_, /*descending=*/true);
  auto mx = place_earliest_finish(view, order_, loads_);
  const double mx_makespan = drain_makespan(view, loads_);
  return mm_makespan <= mx_makespan ? std::move(mm) : std::move(mx);
}

std::unique_ptr<sim::SchedulingPolicy> make_met() {
  return std::make_unique<ImmediatePolicy>(
      std::make_unique<MinimumExecutionTimeRule>());
}
std::unique_ptr<sim::SchedulingPolicy> make_kpb(double percent) {
  return std::make_unique<ImmediatePolicy>(
      std::make_unique<KPercentBestRule>(percent));
}
std::unique_ptr<sim::SchedulingPolicy> make_sufferage(std::size_t batch_size) {
  return std::make_unique<SufferagePolicy>(batch_size);
}
std::unique_ptr<sim::SchedulingPolicy> make_olb() {
  return std::make_unique<ImmediatePolicy>(
      std::make_unique<OpportunisticLoadBalancingRule>());
}
std::unique_ptr<sim::SchedulingPolicy> make_duplex(std::size_t batch_size) {
  return std::make_unique<DuplexPolicy>(batch_size);
}

}  // namespace gasched::sched
