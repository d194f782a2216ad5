#include "sched/heuristics.hpp"

#include <algorithm>
#include <limits>
#include <stdexcept>

namespace gasched::sched {

sim::ProcId earliest_finish(const sim::SystemView& view, LoadView loads,
                            double size_mflops) {
  constexpr double kInf = std::numeric_limits<double>::infinity();
  constexpr double kMinNormal = std::numeric_limits<double>::min();
  constexpr double kMargin = 1.0 + 0x1p-50;
  sim::ProcId best = 0;
  double best_time = kInf;
  // λ = fl(b·(1 + 2⁻⁵⁰)) for the incumbent b; +inf before there is one.
  // A +inf product skips only an infinite start, whose quotient is +inf
  // or NaN and replaces nothing.
  double lambda = kInf;
  const sim::ProcessorView* procs = view.procs.data();
#pragma GCC unroll 4
  for (std::size_t j = 0; j < view.size(); ++j) {
    const double rate = procs[j].rate;
    const double start = loads[j] + size_mflops;
    const double product = lambda * rate;
    if (start >= product && product >= kMinNormal) continue;  // certified
    if (!(rate > 0.0)) continue;
    const double finish = start / rate;
    if (finish < best_time) {
      best_time = finish;
      lambda = finish * kMargin;
      best = static_cast<sim::ProcId>(j);
    }
  }
  return best;
}

void copy_loads(const sim::SystemView& view, std::vector<double>& loads) {
  loads.resize(view.size());
  for (std::size_t j = 0; j < view.size(); ++j) {
    loads[j] = view.procs[j].pending_mflops;
  }
}

void take_batch(std::deque<workload::Task>& queue, std::size_t batch_size,
                std::vector<workload::Task>& batch) {
  batch.clear();
  batch.reserve(std::min(batch_size, queue.size()));
  while (batch.size() < batch_size && !queue.empty()) {
    batch.push_back(queue.front());
    queue.pop_front();
  }
}

void sort_by_size(std::vector<workload::Task>& batch, bool descending) {
  std::stable_sort(batch.begin(), batch.end(),
                   [&](const workload::Task& a, const workload::Task& b) {
                     return descending ? a.size_mflops > b.size_mflops
                                       : a.size_mflops < b.size_mflops;
                   });
}

sim::BatchAssignment place_earliest_finish(
    const sim::SystemView& view, const std::vector<workload::Task>& batch,
    std::vector<double>& loads) {
  auto assignment = sim::BatchAssignment::empty(view.size());
  copy_loads(view, loads);
  for (const auto& task : batch) {
    const sim::ProcId j = earliest_finish(view, LoadView(loads),
                                          task.size_mflops);
    assignment.per_proc[static_cast<std::size_t>(j)].push_back(task.id);
    loads[static_cast<std::size_t>(j)] += task.size_mflops;
  }
  return assignment;
}

sim::ProcId EarliestFinishRule::place(const workload::Task& task,
                                      const sim::SystemView& view,
                                      LoadView loads, util::Rng&) {
  return earliest_finish(view, loads, task.size_mflops);
}

sim::ProcId LightestLoadedRule::place(const workload::Task&,
                                      const sim::SystemView& view,
                                      LoadView loads, util::Rng&) {
  sim::ProcId best = 0;
  double best_load = std::numeric_limits<double>::infinity();
  for (std::size_t j = 0; j < view.size(); ++j) {
    if (loads[j] < best_load) {
      best_load = loads[j];
      best = static_cast<sim::ProcId>(j);
    }
  }
  return best;
}

sim::ProcId RoundRobinRule::place(const workload::Task&,
                                  const sim::SystemView& view, LoadView,
                                  util::Rng&) {
  const auto j = static_cast<sim::ProcId>(next_ % view.size());
  ++next_;
  return j;
}

ImmediatePolicy::ImmediatePolicy(std::unique_ptr<ImmediateRule> rule)
    : rule_(std::move(rule)) {
  if (!rule_) throw std::invalid_argument("ImmediatePolicy: null rule");
}

sim::BatchAssignment ImmediatePolicy::invoke(
    const sim::SystemView& view, std::deque<workload::Task>& queue,
    util::Rng& rng) {
  auto assignment = sim::BatchAssignment::empty(view.size());
  LoadView loads(view);
  bool copied = false;
  while (!queue.empty()) {
    const workload::Task task = queue.front();
    queue.pop_front();
    const sim::ProcId j = rule_->place(task, view, loads, rng);
    if (j < 0 || static_cast<std::size_t>(j) >= view.size()) {
      throw std::runtime_error("ImmediatePolicy: rule returned bad processor");
    }
    assignment.per_proc[static_cast<std::size_t>(j)].push_back(task.id);
    if (queue.empty()) break;
    if (!copied) {
      copy_loads(view, loads_);
      loads = LoadView(loads_);
      copied = true;
    }
    loads_[static_cast<std::size_t>(j)] += task.size_mflops;
  }
  return assignment;
}

SortedBatchPolicy::SortedBatchPolicy(bool descending, std::size_t batch_size)
    : descending_(descending), batch_size_(batch_size) {
  if (batch_size == 0) {
    throw std::invalid_argument("SortedBatchPolicy: batch_size >= 1");
  }
}

sim::BatchAssignment SortedBatchPolicy::invoke(
    const sim::SystemView& view, std::deque<workload::Task>& queue,
    util::Rng&) {
  if (queue.empty()) return sim::BatchAssignment::empty(view.size());
  take_batch(queue, batch_size_, batch_);
  sort_by_size(batch_, descending_);
  return place_earliest_finish(view, batch_, loads_);
}

std::unique_ptr<sim::SchedulingPolicy> make_ef() {
  return std::make_unique<ImmediatePolicy>(
      std::make_unique<EarliestFinishRule>());
}
std::unique_ptr<sim::SchedulingPolicy> make_ll() {
  return std::make_unique<ImmediatePolicy>(
      std::make_unique<LightestLoadedRule>());
}
std::unique_ptr<sim::SchedulingPolicy> make_rr() {
  return std::make_unique<ImmediatePolicy>(std::make_unique<RoundRobinRule>());
}
std::unique_ptr<sim::SchedulingPolicy> make_mm(std::size_t batch_size) {
  return std::make_unique<SortedBatchPolicy>(false, batch_size);
}
std::unique_ptr<sim::SchedulingPolicy> make_mx(std::size_t batch_size) {
  return std::make_unique<SortedBatchPolicy>(true, batch_size);
}

}  // namespace gasched::sched
