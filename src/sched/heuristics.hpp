#pragma once
// Baseline schedulers from §4.1 of the paper.
//
// Immediate mode (one task at a time, FCFS):
//   EF — earliest finish: argmin_j (L_j + t) / P_j.          Θ(M) per task
//   LL — lightest loaded: argmin_j L_j (MFLOPs).             Θ(M) per task
//   RR — round robin: cyclic assignment, no state inspected. Θ(1) per task
//
// Batch mode (FCFS batches of `batch_size` tasks):
//   MX — max-min: sort batch descending by size, place each on the
//        processor that finishes it first (largest tasks early, small
//        tasks fill the gaps).       Θ(max(M, n log n)) per batch
//   MM — min-min: as MX but ascending.
//
// None of these use communication estimates — per the paper, "the effect
// of communication is only considered after tasks or batches of tasks
// have been scheduled". They adapt only through the observed loads in the
// system view.
//
// Earliest-finish kernel. EF, MM, MX, Duplex and OLB (the kernel with
// t = 0) all place a task with `earliest_finish`, whose contract is: the
// first index j with P_j > 0 that minimises fl(fl(L_j + t) / P_j) under
// strict <, or 0 when no processor has P_j > 0. The scan skips the
// division where it cannot change the answer: with the incumbent finish b
// and λ = fl(b·(1 + 2⁻⁵⁰)), recomputed only when b improves, any j with
// fl(L_j + t) ≥ p = fl(λ·P_j) ≥ DBL_MIN has fl(fl(L_j + t) / P_j) ≥ b, so
// the plain scan would not have replaced the incumbent with it. The
// derivation is in docs/evaluation.md, "Earliest-finish scan".
//
// Loads. Every rule reads L_j through a `LoadView`: the view's
// `pending_mflops` until the invocation has placed a task, then the
// policy's own updated copy. A one-task invocation copies nothing; a
// batch copies the loads once per schedule it builds.

#include <cstddef>
#include <deque>
#include <memory>
#include <string>
#include <vector>

#include "sim/policy.hpp"

namespace gasched::sched {

/// Read-only loads L_j in MFLOPs: either the `pending_mflops` of a
/// SystemView's entries or a policy's own load vector. Valid while the
/// source is alive and not resized. Which source it reads is fixed for
/// the view's lifetime, so a compiler can hoist that test out of a scan.
class LoadView {
 public:
  /// The loads the engine reported.
  explicit LoadView(const sim::SystemView& view) noexcept
      : procs_(view.procs.data()) {}
  /// A policy's updated copy (one entry per processor).
  explicit LoadView(const std::vector<double>& loads) noexcept
      : copy_(loads.data()) {}

  /// L_j.
  double operator[](std::size_t j) const noexcept {
    return copy_ != nullptr ? copy_[j] : procs_[j].pending_mflops;
  }

 private:
  const sim::ProcessorView* procs_ = nullptr;
  const double* copy_ = nullptr;
};

/// The earliest-finish kernel (contract above): the processor finishing a
/// task of `size_mflops` first given `loads`, or 0 if no rate is > 0.
sim::ProcId earliest_finish(const sim::SystemView& view, LoadView loads,
                            double size_mflops);

/// Writes the view's loads into `loads` (resized to M).
void copy_loads(const sim::SystemView& view, std::vector<double>& loads);

/// Moves up to `batch_size` tasks from the front of `queue` into `batch`
/// (cleared first), keeping FCFS order.
void take_batch(std::deque<workload::Task>& queue, std::size_t batch_size,
                std::vector<workload::Task>& batch);

/// Stable-sorts `batch` by size: descending (max-min order) or ascending
/// (min-min order).
void sort_by_size(std::vector<workload::Task>& batch, bool descending);

/// Places `batch` in its order, each task with `earliest_finish` on the
/// view's loads plus the tasks placed before it. `loads` is scratch; on
/// return it holds those loads after the whole batch.
sim::BatchAssignment place_earliest_finish(
    const sim::SystemView& view, const std::vector<workload::Task>& batch,
    std::vector<double>& loads);

/// Immediate-mode placement rule: choose a processor for one task given
/// the (locally updated) loads.
class ImmediateRule {
 public:
  virtual ~ImmediateRule() = default;
  /// Chooses a processor. `loads[j]` includes tasks already placed
  /// earlier in the same scheduler invocation.
  virtual sim::ProcId place(const workload::Task& task,
                            const sim::SystemView& view, LoadView loads,
                            util::Rng& rng) = 0;
  /// Rule name ("EF", ...).
  virtual std::string name() const = 0;
};

/// EF: earliest estimated finish time (load + task) / rate.
class EarliestFinishRule final : public ImmediateRule {
 public:
  sim::ProcId place(const workload::Task& task, const sim::SystemView& view,
                    LoadView loads, util::Rng& rng) override;
  std::string name() const override { return "EF"; }
};

/// LL: smallest pending load in MFLOPs (task size ignored).
class LightestLoadedRule final : public ImmediateRule {
 public:
  sim::ProcId place(const workload::Task& task, const sim::SystemView& view,
                    LoadView loads, util::Rng& rng) override;
  std::string name() const override { return "LL"; }
};

/// RR: cyclic assignment (stateful).
class RoundRobinRule final : public ImmediateRule {
 public:
  sim::ProcId place(const workload::Task& task, const sim::SystemView& view,
                    LoadView loads, util::Rng& rng) override;
  std::string name() const override { return "RR"; }

 private:
  std::size_t next_ = 0;
};

/// Adapts an ImmediateRule to the engine's SchedulingPolicy interface:
/// consumes the whole unscheduled queue FCFS. The first placement reads
/// the view's loads; a second one makes a local copy and updates it after
/// each placement.
class ImmediatePolicy final : public sim::SchedulingPolicy {
 public:
  /// Takes ownership of `rule`.
  explicit ImmediatePolicy(std::unique_ptr<ImmediateRule> rule);
  sim::BatchAssignment invoke(const sim::SystemView& view,
                              std::deque<workload::Task>& queue,
                              util::Rng& rng) override;
  std::string name() const override { return rule_->name(); }

 private:
  std::unique_ptr<ImmediateRule> rule_;
  std::vector<double> loads_;  // reused local load copy
};

/// MM / MX batch heuristics: FCFS batches sorted by size, each task placed
/// on the processor finishing it earliest.
class SortedBatchPolicy final : public sim::SchedulingPolicy {
 public:
  /// `descending` = true gives max-min (MX); false gives min-min (MM).
  SortedBatchPolicy(bool descending, std::size_t batch_size = 200);
  sim::BatchAssignment invoke(const sim::SystemView& view,
                              std::deque<workload::Task>& queue,
                              util::Rng& rng) override;
  std::string name() const override { return descending_ ? "MX" : "MM"; }

 private:
  bool descending_;
  std::size_t batch_size_;
  std::vector<workload::Task> batch_;  // reused batch buffer
  std::vector<double> loads_;          // reused local load copy
};

/// Factory helpers matching the paper's scheduler names.
std::unique_ptr<sim::SchedulingPolicy> make_ef();
std::unique_ptr<sim::SchedulingPolicy> make_ll();
std::unique_ptr<sim::SchedulingPolicy> make_rr();
std::unique_ptr<sim::SchedulingPolicy> make_mm(std::size_t batch_size = 200);
std::unique_ptr<sim::SchedulingPolicy> make_mx(std::size_t batch_size = 200);

}  // namespace gasched::sched
