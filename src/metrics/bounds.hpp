#pragma once
// Makespan lower bounds and exact solutions for small instances.
//
// The paper claims its scheduler "can produce near-optimal schedules"
// (§3) without quantifying the gap. These utilities make the claim
// testable:
//
//  * makespan_lower_bound — a valid lower bound for any schedule of a
//    task set on heterogeneous processors with per-link dispatch costs:
//    the maximum of the work bound (all processors busy until the end,
//    every dispatch paying its cheapest link) and the critical-task
//    bound (some task must finish on its own best processor).
//  * optimal_makespan_exact — branch-and-bound over the full assignment
//    space for tiny instances (exact optimum; exponential — keep
//    N ≤ ~12, M ≤ ~4). Used by tests and the optimality-gap bench to
//    measure how near "near-optimal" is.
//  * relaxation_lower_bound — the third bound: the fractional
//    assignment relaxation solved by the IP-PMM interior-point method
//    (src/opt), reported through its *certified* dual bound and never
//    below makespan_lower_bound. Polynomial, so it scales to the
//    H=600/M=50 sizes the benches run at. See docs/bounds.md.
//
// Both operate on the scheduler-visible quantities (rates, pending load,
// per-link costs), mirroring core::ScheduleEvaluator's cost model:
// task t on processor j costs t/P_j + c_j seconds after the processor's
// existing drain time δ_j.

#include <cstddef>
#include <vector>

namespace gasched::metrics {

/// Instance description for the bound/exact computations.
struct BoundInstance {
  /// Task sizes in MFLOPs.
  std::vector<double> task_sizes;
  /// Processor rates P_j in Mflop/s (must be positive).
  std::vector<double> rates;
  /// Existing load L_j in MFLOPs per processor (optional; empty = 0).
  std::vector<double> pending_mflops;
  /// Per-dispatch communication cost c_j in seconds per processor
  /// (optional; empty = 0).
  std::vector<double> comm_costs;
};

/// Valid makespan lower bound for any assignment of the instance's tasks
/// (maximum of the four bounds documented above; each is individually
/// valid, so their maximum is). O(N + M). Throws std::invalid_argument
/// on non-positive or NaN rates, NaN or negative task sizes or pending
/// loads, and per-processor vectors of the wrong length.
double makespan_lower_bound(const BoundInstance& inst);

/// Exact optimal makespan by branch-and-bound over all M^N assignments
/// (queue order never matters in this cost model). Tasks are explored
/// largest-first with the work bound for pruning. Throws
/// std::invalid_argument when the instance exceeds `max_states`
/// expansions worth of search space (default caps at roughly N ≤ 14 on
/// small M).
double optimal_makespan_exact(const BoundInstance& inst,
                              std::size_t max_states = 50'000'000);

/// Knobs of the relaxation bound — mirrors the [bounds] INI section
/// (exp::bounds_from_config) and the defaults used by the fuzz suite.
struct RelaxationBoundOptions {
  /// false = skip the solver entirely; relaxation_lower_bound then
  /// returns makespan_lower_bound.
  bool enabled = true;
  double tolerance = 1e-8;        ///< IP-PMM relative tolerance
  std::size_t max_iterations = 60;
};

/// Certified lower bound from the fractional-assignment relaxation's
/// dual certificate (opt::solve_makespan_relaxation), folded with
/// makespan_lower_bound: max(dual certificate, combinatorial bound).
/// Each part is individually a valid bound, so the maximum is — and the
/// certificate stays valid even when the interior-point solver stops at
/// max_iterations, so early termination only costs tightness, never
/// correctness. Deterministic; same validation/throws as
/// makespan_lower_bound.
double relaxation_lower_bound(const BoundInstance& inst,
                              const RelaxationBoundOptions& options = {});

}  // namespace gasched::metrics
