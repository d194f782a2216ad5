#pragma once
// Template-method base for the batch-mode local-search schedulers.
//
// Shares the batch protocol of the GA schedulers (FCFS batches consumed
// from the unscheduled queue, one ordered future queue per processor) so
// SA / tabu / ACO / hill-climbing differ from PN and ZO only in *how* the
// batch schedule is searched, never in what they are allowed to observe.
// All of them see the PN information model: smoothed execution rates,
// pending load, and smoothed per-link communication estimates.

#include <cstddef>
#include <string>

#include "core/encoding.hpp"
#include "core/fitness.hpp"
#include "sim/policy.hpp"

namespace gasched::meta {

/// Parameters shared by every local-search batch scheduler.
struct BatchSearchConfig {
  /// FCFS batch size (paper's fixed-batch experiments use 200).
  std::size_t batch_size = 200;
  /// Fraction of batch slots placed randomly (vs earliest finish) in the
  /// list-scheduling start solution — 0 starts from the pure greedy
  /// schedule, 1 from a uniformly random one.
  double init_random_fraction = 0.0;
  /// Predict per-link communication costs in the objective (the PN
  /// information model). Disable to get a comm-oblivious searcher for
  /// ablations.
  bool use_comm_estimates = true;
};

/// Batch scheduler skeleton: extracts the batch, builds the evaluator and
/// greedy start solution (decoded straight into a reused flat schedule),
/// delegates to `search`, and converts the result into per-processor
/// dispatch queues.
class LocalSearchBatchPolicy : public sim::SchedulingPolicy {
 public:
  explicit LocalSearchBatchPolicy(BatchSearchConfig cfg);

  sim::BatchAssignment invoke(const sim::SystemView& view,
                              std::deque<workload::Task>& queue,
                              util::Rng& rng) final;

  /// Shared configuration.
  const BatchSearchConfig& batch_config() const noexcept { return cfg_; }

 protected:
  /// Improves `schedule` in place: it arrives as a valid slot assignment
  /// for `eval` (the list-schedule start solution) and must leave covering
  /// exactly the same slots. Implementations track candidate assignments
  /// with meta::LoadTracker and write their best one back at the end.
  virtual void search(const core::ScheduleEvaluator& eval,
                      core::FlatSchedule& schedule, util::Rng& rng) const = 0;

 private:
  BatchSearchConfig cfg_;
  core::FlatSchedule scratch_;  // reused flat schedule across invocations
};

}  // namespace gasched::meta
