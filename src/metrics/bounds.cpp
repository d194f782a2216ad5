#include "metrics/bounds.hpp"

#include <algorithm>
#include <limits>
#include <cmath>
#include <numeric>
#include <stdexcept>

#include "opt/relaxation.hpp"

namespace gasched::metrics {

namespace {

void validate(const BoundInstance& inst) {
  if (inst.rates.empty()) {
    throw std::invalid_argument("BoundInstance: no processors");
  }
  for (const double r : inst.rates) {
    if (!(r > 0.0)) {
      throw std::invalid_argument("BoundInstance: rates must be positive");
    }
  }
  if (!inst.pending_mflops.empty() &&
      inst.pending_mflops.size() != inst.rates.size()) {
    throw std::invalid_argument("BoundInstance: pending size mismatch");
  }
  if (!inst.comm_costs.empty() &&
      inst.comm_costs.size() != inst.rates.size()) {
    throw std::invalid_argument("BoundInstance: comm size mismatch");
  }
  // A NaN or negative size or load is no instance. Rejecting them also
  // keeps the work bound at +0 or above and every std::min/std::max
  // below independent of argument order.
  for (const double t : inst.task_sizes) {
    if (!(t >= 0.0)) {
      throw std::invalid_argument(
          "BoundInstance: task sizes must be non-negative numbers");
    }
  }
  for (const double l : inst.pending_mflops) {
    if (!(l >= 0.0)) {
      throw std::invalid_argument(
          "BoundInstance: pending loads must be non-negative numbers");
    }
  }
}

double pending(const BoundInstance& inst, std::size_t j) {
  return inst.pending_mflops.empty() ? 0.0 : inst.pending_mflops[j];
}

double comm(const BoundInstance& inst, std::size_t j) {
  return inst.comm_costs.empty() ? 0.0 : inst.comm_costs[j];
}

}  // namespace

double makespan_lower_bound(const BoundInstance& inst) {
  validate(inst);
  const std::size_t M = inst.rates.size();
  const std::size_t N = inst.task_sizes.size();

  double total_rate = 0.0;
  double min_comm = std::numeric_limits<double>::infinity();
  double min_comm_rate = std::numeric_limits<double>::infinity();
  double max_delta = 0.0;
  for (std::size_t j = 0; j < M; ++j) {
    total_rate += inst.rates[j];
    min_comm = std::min(min_comm, comm(inst, j));
    min_comm_rate = std::min(min_comm_rate, comm(inst, j) * inst.rates[j]);
    max_delta = std::max(max_delta, pending(inst, j) / inst.rates[j]);
  }

  double total_work = 0.0;
  for (const double t : inst.task_sizes) total_work += t;
  double total_load = total_work;
  for (std::size_t j = 0; j < M; ++j) total_load += pending(inst, j);

  // Work bound with communication: processor j executes at most
  // P_j·(T − n_j·c_j) MFLOPs in a schedule of makespan T, so
  // T·ΣP ≥ total_load + Σ_j n_j·c_j·P_j ≥ total_load + N·min_j(c_j·P_j).
  const double comm_work =
      N > 0 && std::isfinite(min_comm_rate)
          ? static_cast<double>(N) * min_comm_rate
          : 0.0;
  double bound = (total_load + comm_work) / total_rate;

  // Pigeonhole on dispatches: some processor receives >= ceil(N/M) tasks
  // and pays at least min_comm for each (comm is serialised per
  // processor in this cost model).
  if (N > 0 && std::isfinite(min_comm)) {
    const double per_proc = std::ceil(static_cast<double>(N) /
                                      static_cast<double>(M));
    bound = std::max(bound, per_proc * min_comm);
  }

  // Critical-task bound: every task must run somewhere; its best case is
  // an empty best processor. A rounded division by P_j > 0 and a rounded
  // addition of c_j are both monotone non-decreasing in t, so
  // min_j fl(fl(t / P_j) + c_j) is too, and its maximum over the tasks is
  // its value at the (first) largest task: O(N + M) for the double the
  // N × M scan over every task returned.
  if (N > 0) {
    const double t =
        *std::max_element(inst.task_sizes.begin(), inst.task_sizes.end());
    double best = std::numeric_limits<double>::infinity();
    for (std::size_t j = 0; j < M; ++j) {
      best = std::min(best, t / inst.rates[j] + comm(inst, j));
    }
    bound = std::max(bound, best);
  }

  // A processor's existing load is indivisible: nothing finishes before
  // the most-loaded processor drains (its tasks are already placed).
  // Only a valid global bound when that processor must also appear in
  // the final makespan — it does: makespan = max_j C_j >= δ_j for all j.
  bound = std::max(bound, max_delta);
  return bound;
}

namespace {

struct Searcher {
  const BoundInstance& inst;
  std::size_t max_states;
  std::vector<std::size_t> order;   // task indices, largest first
  std::vector<double> completion;   // C_j during search
  double best = std::numeric_limits<double>::infinity();
  std::size_t states = 0;
  std::vector<double> suffix_work;  // Σ t over remaining tasks from depth d

  explicit Searcher(const BoundInstance& i, std::size_t cap)
      : inst(i), max_states(cap) {
    const std::size_t N = inst.task_sizes.size();
    order.resize(N);
    std::iota(order.begin(), order.end(), std::size_t{0});
    std::stable_sort(order.begin(), order.end(),
                     [&](std::size_t a, std::size_t b) {
                       return inst.task_sizes[a] > inst.task_sizes[b];
                     });
    completion.resize(inst.rates.size());
    for (std::size_t j = 0; j < inst.rates.size(); ++j) {
      completion[j] = pending(inst, j) / inst.rates[j];
    }
    suffix_work.assign(N + 1, 0.0);
    for (std::size_t d = N; d-- > 0;) {
      suffix_work[d] = suffix_work[d + 1] + inst.task_sizes[order[d]];
    }
  }

  double total_rate() const {
    double s = 0.0;
    for (const double r : inst.rates) s += r;
    return s;
  }

  void dfs(std::size_t depth) {
    if (++states > max_states) {
      throw std::invalid_argument(
          "optimal_makespan_exact: instance too large for exact search");
    }
    const std::size_t M = inst.rates.size();
    if (depth == order.size()) {
      double ms = 0.0;
      for (const double c : completion) ms = std::max(ms, c);
      best = std::min(best, ms);
      return;
    }
    // Prune: even perfectly divisible remaining work cannot beat best.
    double current_max = 0.0;
    double slack_work = 0.0;  // rate-weighted room below current_max
    for (const double c : completion) current_max = std::max(current_max, c);
    for (std::size_t j = 0; j < M; ++j) {
      slack_work += (current_max - completion[j]) * inst.rates[j];
    }
    const double remaining = suffix_work[depth];
    double optimistic = current_max;
    if (remaining > slack_work) {
      optimistic += (remaining - slack_work) / total_rate();
    }
    if (optimistic >= best) return;

    const std::size_t task = order[depth];
    for (std::size_t j = 0; j < M; ++j) {
      const double cost =
          inst.task_sizes[task] / inst.rates[j] + comm(inst, j);
      completion[j] += cost;
      if (completion[j] < best) {  // placing beyond best can never help
        dfs(depth + 1);
      }
      completion[j] -= cost;
    }
  }
};

}  // namespace

double relaxation_lower_bound(const BoundInstance& inst,
                              const RelaxationBoundOptions& options) {
  const double combinatorial = makespan_lower_bound(inst);  // also validates
  if (!options.enabled) return combinatorial;
  opt::RelaxationOptions solver;
  solver.tolerance = options.tolerance;
  solver.max_iterations = options.max_iterations;
  const opt::RelaxationResult r = opt::solve_makespan_relaxation(inst, solver);
  // The LP relaxation does not dominate every combinatorial bound (a
  // single task may be split fractionally across processors, beating the
  // critical-task bound), so fold them: both are certified, hence so is
  // the max.
  return std::max(combinatorial, r.certified_bound);
}

double optimal_makespan_exact(const BoundInstance& inst,
                              std::size_t max_states) {
  validate(inst);
  if (inst.task_sizes.empty()) {
    double ms = 0.0;
    for (std::size_t j = 0; j < inst.rates.size(); ++j) {
      ms = std::max(ms, pending(inst, j) / inst.rates[j]);
    }
    return ms;
  }
  Searcher s(inst, max_states);
  s.dfs(0);
  return s.best;
}

}  // namespace gasched::metrics
