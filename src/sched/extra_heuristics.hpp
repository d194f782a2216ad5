#pragma once
// Additional baselines from Maheswaran, Ali, Siegel, Hensgen & Freund,
// "Dynamic mapping of a class of independent tasks onto heterogeneous
// computing systems" (JPDC 1999) — reference [11] of the paper. The paper
// compares against a subset of these; implementing the remainder makes
// the comparison suite complete:
//
//   MET  (minimum execution time, immediate): place each task on the
//        processor that executes it fastest, ignoring load. Θ(M).
//   KPB  (k-percent best, immediate): restrict to the k% of processors
//        with the best execution time for the task, then pick the one
//        with the earliest finish. Interpolates MET and EF/MCT. Θ(M log M).
//   SUF  (Sufferage, batch): repeatedly assign the task that would
//        "suffer" most if denied its best processor (largest gap between
//        best and second-best completion time). Θ(n²·M) per batch.
//   OLB  (opportunistic load balancing, immediate): place each task on
//        the processor expected to become *available* soonest, ignoring
//        the task's own execution time. Θ(M).
//   DUP  (Duplex, batch): run min-min and max-min on the batch and keep
//        whichever produces the smaller estimated makespan. Θ(n²·M).

#include <memory>

#include "sched/heuristics.hpp"

namespace gasched::sched {

/// MET: fastest executor regardless of load. With heterogeneous rates it
/// piles everything on the fastest machine — a useful pathological
/// baseline.
class MinimumExecutionTimeRule final : public ImmediateRule {
 public:
  sim::ProcId place(const workload::Task& task, const sim::SystemView& view,
                    LoadView loads, util::Rng& rng) override;
  std::string name() const override { return "MET"; }
};

/// KPB: earliest finish among the ⌈k%·M⌉ fastest processors for the task.
class KPercentBestRule final : public ImmediateRule {
 public:
  /// `percent` in (0, 100]. 100 degenerates to EF; small values approach
  /// MET.
  explicit KPercentBestRule(double percent = 20.0);
  sim::ProcId place(const workload::Task& task, const sim::SystemView& view,
                    LoadView loads, util::Rng& rng) override;
  std::string name() const override;

 private:
  double percent_;
  std::vector<std::size_t> order_;  // reused rate-ranking buffer
};

/// Sufferage batch scheduler (Maheswaran et al. §4.2).
class SufferagePolicy final : public sim::SchedulingPolicy {
 public:
  /// Takes FCFS batches of `batch_size` tasks.
  explicit SufferagePolicy(std::size_t batch_size = 200);
  sim::BatchAssignment invoke(const sim::SystemView& view,
                              std::deque<workload::Task>& queue,
                              util::Rng& rng) override;
  std::string name() const override { return "SUF"; }

 private:
  std::size_t batch_size_;
};

/// OLB: earliest-available processor (smallest drain time of the pending
/// load), blind to the task being placed: the earliest-finish kernel run
/// with a zero-size task.
class OpportunisticLoadBalancingRule final : public ImmediateRule {
 public:
  sim::ProcId place(const workload::Task& task, const sim::SystemView& view,
                    LoadView loads, util::Rng& rng) override;
  std::string name() const override { return "OLB"; }
};

/// Duplex batch scheduler (Braun et al. taxonomy): evaluates both the
/// min-min and max-min schedules for each batch and commits the one with
/// the smaller estimated makespan (ties keep min-min). Both schedules are
/// built by `place_earliest_finish`.
class DuplexPolicy final : public sim::SchedulingPolicy {
 public:
  /// Takes FCFS batches of `batch_size` tasks.
  explicit DuplexPolicy(std::size_t batch_size = 200);
  sim::BatchAssignment invoke(const sim::SystemView& view,
                              std::deque<workload::Task>& queue,
                              util::Rng& rng) override;
  std::string name() const override { return "DUP"; }

 private:
  std::size_t batch_size_;
  std::vector<workload::Task> batch_;  // reused FCFS batch
  std::vector<workload::Task> order_;  // reused sorted copy of batch_
  std::vector<double> loads_;          // reused local load copy
};

/// Factory helpers.
std::unique_ptr<sim::SchedulingPolicy> make_met();
std::unique_ptr<sim::SchedulingPolicy> make_kpb(double percent = 20.0);
std::unique_ptr<sim::SchedulingPolicy> make_sufferage(
    std::size_t batch_size = 200);
std::unique_ptr<sim::SchedulingPolicy> make_olb();
std::unique_ptr<sim::SchedulingPolicy> make_duplex(
    std::size_t batch_size = 200);

}  // namespace gasched::sched
