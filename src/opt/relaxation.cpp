#include "opt/relaxation.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>

#include "opt/ippm.hpp"

namespace gasched::opt {

namespace {

double rel_pending(const metrics::BoundInstance& inst, std::size_t j) {
  return inst.pending_mflops.empty() ? 0.0 : inst.pending_mflops[j];
}

double rel_comm(const metrics::BoundInstance& inst, std::size_t j) {
  return inst.comm_costs.empty() ? 0.0 : inst.comm_costs[j];
}

double rel_cost(const metrics::BoundInstance& inst, std::size_t t, std::size_t j) {
  return inst.task_sizes[t] / inst.rates[j] + rel_comm(inst, j);
}

double rel_delta(const metrics::BoundInstance& inst, std::size_t j) {
  return rel_pending(inst, j) / inst.rates[j];
}

}  // namespace

double certified_bound_from_duals(const metrics::BoundInstance& inst,
                                  const std::vector<double>& lambda) {
  metrics::validate_instance(inst);
  const std::size_t m = inst.rates.size();
  const std::size_t n = inst.task_sizes.size();
  if (lambda.size() != m) {
    throw std::invalid_argument(
        "certified_bound_from_duals: lambda size mismatch");
  }
  double weight = 0.0;
  for (const double l : lambda) {
    if (!std::isfinite(l)) return 0.0;
    weight += std::max(l, 0.0);
  }
  if (!(weight > 0.0) || !std::isfinite(weight)) return 0.0;

  // Numerator: every term is nonnegative, so the relative rounding error
  // of the whole expression is bounded by the operation count times the
  // unit roundoff — subtract that margin to stay a true bound.
  double numerator = 0.0;
  for (std::size_t t = 0; t < n; ++t) {
    double cheapest = std::numeric_limits<double>::infinity();
    for (std::size_t j = 0; j < m; ++j) {
      cheapest = std::min(cheapest, std::max(lambda[j], 0.0) * rel_cost(inst, t, j));
    }
    numerator += cheapest;
  }
  for (std::size_t j = 0; j < m; ++j) {
    numerator += std::max(lambda[j], 0.0) * rel_delta(inst, j);
  }
  const double bound = numerator / weight;
  if (!std::isfinite(bound)) return 0.0;
  const double eps = std::numeric_limits<double>::epsilon();
  const double margin =
      bound * eps * 8.0 * static_cast<double>(n + m + 8);
  return std::max(0.0, bound - margin);
}

RelaxationResult solve_makespan_relaxation(const metrics::BoundInstance& inst,
                                           const RelaxationOptions& options) {
  metrics::validate_instance(inst);
  const std::size_t num_tasks = inst.task_sizes.size();
  const std::size_t num_procs = inst.rates.size();

  RelaxationResult result;
  result.machine_duals.assign(num_procs, 0.0);
  if (num_tasks == 0) {
    // No assignment freedom: T* = max_j δ_j, certified by the unit
    // multiplier on the most-loaded processor.
    std::size_t worst = 0;
    for (std::size_t j = 1; j < num_procs; ++j) {
      if (rel_delta(inst, j) > rel_delta(inst, worst)) worst = j;
    }
    result.machine_duals[worst] = 1.0;
    result.certified_bound = certified_bound_from_duals(inst, result.machine_duals);
    result.relaxation_objective = rel_delta(inst, worst);
    result.converged = true;
    return result;
  }

  // Variable layout: x_tj at t·M + j, s_j at N·M + j, T last. Task rows
  // first — they are pairwise column-disjoint (each x column hits
  // exactly one), which is the solver's Schur fast path.
  QpProblem lp;
  lp.num_vars = num_tasks * num_procs + num_procs + 1;
  lp.num_cons = num_tasks + num_procs;
  lp.schur_diag_rows = num_tasks;
  lp.linear.assign(lp.num_vars, 0.0);
  lp.linear.back() = 1.0;
  lp.rhs.assign(lp.num_cons, 0.0);
  lp.constraints.reserve(2 * num_tasks * num_procs + 2 * num_procs);
  const std::size_t t_col = lp.num_vars - 1;
  for (std::size_t t = 0; t < num_tasks; ++t) {
    lp.rhs[t] = 1.0;
    for (std::size_t j = 0; j < num_procs; ++j) {
      lp.constraints.push_back({t, t * num_procs + j, 1.0});
      lp.constraints.push_back(
          {num_tasks + j, t * num_procs + j, rel_cost(inst, t, j)});
    }
  }
  for (std::size_t j = 0; j < num_procs; ++j) {
    lp.rhs[num_tasks + j] = -rel_delta(inst, j);
    lp.constraints.push_back({num_tasks + j, num_tasks * num_procs + j, 1.0});
    lp.constraints.push_back({num_tasks + j, t_col, -1.0});
  }

  IppmOptions solver_options;
  solver_options.tolerance = options.tolerance;
  solver_options.max_iterations = options.max_iterations;
  const IppmSolution solution = solve_qp(lp, solver_options);

  // Machine row j is written as Σ_t a_tj·x_tj + s_j − T = −δ_j, so the
  // slack's reduced cost z_s = −y ≥ 0 makes λ_j = −y_{N+j} the
  // multiplier of the ≤-form constraint. Clamp: the certificate is
  // valid for any λ ≥ 0, so clamping loses nothing and guards against
  // an unconverged dual.
  for (std::size_t j = 0; j < num_procs; ++j) {
    const double dual = -solution.y[num_tasks + j];
    result.machine_duals[j] =
        std::isfinite(dual) ? std::max(dual, 0.0) : 0.0;
  }
  result.certified_bound = certified_bound_from_duals(inst, result.machine_duals);
  result.relaxation_objective = solution.x[t_col];
  result.converged = solution.converged();
  result.iterations = solution.iterations;
  return result;
}

}  // namespace gasched::opt
