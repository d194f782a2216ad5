#pragma once
/// \file
/// The fractional makespan-assignment relaxation of a
/// metrics::BoundInstance, and the *certified* lower bound extracted
/// from its dual.
///
/// Primal LP (variables x_tj = fraction of task t on processor j,
/// slack s_j, makespan T; a_tj = t/P_j + c_j, δ_j = L_j/P_j):
///
///     minimize    T
///     subject to  Σ_j x_tj = 1                       (∀ task t)
///                 δ_j + Σ_t a_tj·x_tj + s_j = T      (∀ processor j)
///                 x, s, T ≥ 0
///
/// Any feasible schedule's makespan is feasible here (set x_tj ∈ {0,1}
/// by its assignment), so the LP optimum is a valid lower bound — but a
/// solver's primal value is *not* trustworthy: it is only approximately
/// optimal and approximately feasible. The certificate below is. For
/// any multipliers λ ≥ 0 with Σλ > 0, summing the machine constraints
/// weighted by λ and bounding Σ_j λ_j·a_tj·x_tj from below by
/// min_j(λ_j·a_tj) (since Σ_j x_tj = 1, x ≥ 0) gives **weak duality by
/// direct arithmetic**:
///
///     T ≥ ( Σ_t min_j(λ_j·a_tj) + Σ_j λ_j·δ_j ) / Σ_j λ_j
///
/// valid for EVERY feasible schedule, whatever λ the solver returned and
/// however early it stopped. certified_bound_from_duals() evaluates this
/// expression in plain double arithmetic and subtracts a safe rounding
/// margin proportional to the number of floating-point operations, so
/// the returned value is a true lower bound of the exact optimum.
/// (λ_j ∝ P_j recovers the classic work bound; the solver's converged
/// duals dominate it, which is what makes the reported gaps tighter.)

#include <cstddef>
#include <vector>

#include "metrics/bounds.hpp"

namespace gasched::opt {

struct RelaxationOptions {
  double tolerance = 1e-8;      ///< IP-PMM relative tolerance
  std::size_t max_iterations = 60;
};

struct RelaxationResult {
  /// Certified lower bound on the instance's optimal makespan (≥ 0),
  /// from the dual certificate — valid even when !converged.
  double certified_bound = 0.0;
  /// The solver's primal objective (T at the final iterate). Close to
  /// the LP optimum when converged; NOT a valid bound by itself.
  double relaxation_objective = 0.0;
  bool converged = false;
  std::size_t iterations = 0;
  /// The multipliers λ_j ≥ 0 the certificate was evaluated at (clamped
  /// machine-row duals). Re-evaluating certified_bound_from_duals on
  /// these reproduces certified_bound exactly.
  std::vector<double> machine_duals;
};

/// Formulates and solves the relaxation of `inst` with the IP-PMM
/// solver, then extracts the certified dual bound. Deterministic:
/// identical instances yield bit-identical results. Throws
/// std::invalid_argument on malformed instances
/// (metrics::validate_instance).
RelaxationResult solve_makespan_relaxation(const metrics::BoundInstance& inst,
                                           const RelaxationOptions& options = {});

/// Evaluates the weak-duality certificate at arbitrary multipliers
/// `lambda` (size M; negatives are clamped to 0). Plain double
/// arithmetic plus a rounding margin — the result is a valid makespan
/// lower bound for ANY lambda. Returns 0 when Σλ is not safely positive.
/// Throws std::invalid_argument on malformed instances
/// (metrics::validate_instance) or a lambda of the wrong size.
double certified_bound_from_duals(const metrics::BoundInstance& inst,
                                  const std::vector<double>& lambda);

}  // namespace gasched::opt
