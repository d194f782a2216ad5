#include "meta/sa.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "meta/assignment.hpp"

namespace gasched::meta {

SimulatedAnnealingScheduler::SimulatedAnnealingScheduler(SaConfig cfg)
    : LocalSearchBatchPolicy(cfg.batch), cfg_(cfg) {
  if (cfg_.cooling <= 0.0 || cfg_.cooling >= 1.0) {
    throw std::invalid_argument("SA: cooling must be in (0, 1)");
  }
  if (cfg_.initial_acceptance <= 0.0 || cfg_.initial_acceptance >= 1.0) {
    throw std::invalid_argument("SA: initial_acceptance must be in (0, 1)");
  }
}

void SimulatedAnnealingScheduler::search(const core::ScheduleEvaluator& eval,
                                         core::FlatSchedule& schedule,
                                         util::Rng& rng) const {
  if (eval.num_procs() < 2 || eval.num_tasks() < 2) return;

  LoadTracker state(eval, schedule);

  // Calibrate T₀ from the mean uphill delta of a random-move sample, so
  // the schedule adapts to the batch's cost scale instead of using a
  // fixed magic constant.
  const std::size_t samples = std::min<std::size_t>(64, 8 * state.num_tasks());
  double uphill_sum = 0.0;
  std::size_t uphill_n = 0;
  for (std::size_t i = 0; i < samples; ++i) {
    const double d = state.makespan_delta(state.random_move(rng));
    if (d > 0.0) {
      uphill_sum += d;
      ++uphill_n;
    }
  }
  const double mean_uphill = uphill_n > 0 ? uphill_sum / uphill_n : 0.0;
  // A start solution with no uphill neighbours still gets a pure-descent
  // walk (tiny positive temperature, bounded by frozen_levels).
  double temperature =
      mean_uphill > 0.0 ? -mean_uphill / std::log(cfg_.initial_acceptance)
                        : 1e-12;
  const double t_min =
      mean_uphill > 0.0 ? temperature * cfg_.min_temperature_fraction : 0.0;

  const std::size_t sweep =
      cfg_.moves_per_temperature > 0
          ? cfg_.moves_per_temperature
          : std::max<std::size_t>(64, 4 * state.num_tasks());

  // Best-so-far as a flat slot → processor snapshot: an O(N) copy into a
  // reused buffer instead of materialising per-processor queues on every
  // improvement.
  std::vector<std::size_t> best(state.assignment().begin(),
                                state.assignment().end());
  double best_makespan = state.makespan();

  std::size_t frozen = 0;
  while (temperature > t_min && frozen < cfg_.frozen_levels) {
    std::size_t accepted = 0;
    for (std::size_t i = 0; i < sweep; ++i) {
      const Move m = state.random_move(rng);
      const double delta = state.makespan_delta(m);
      const bool accept =
          delta <= 0.0 ||
          (temperature > 0.0 && rng.uniform01() < std::exp(-delta / temperature));
      if (!accept) continue;
      state.apply(m);
      ++accepted;
      const double ms = state.makespan();
      if (ms < best_makespan) {
        best_makespan = ms;
        best.assign(state.assignment().begin(), state.assignment().end());
      }
    }
    frozen = accepted == 0 ? frozen + 1 : 0;
    temperature *= cfg_.cooling;
  }
  schedule.assign_grouped(best, eval.num_procs());
}

std::unique_ptr<SimulatedAnnealingScheduler> make_sa_scheduler(SaConfig cfg) {
  return std::make_unique<SimulatedAnnealingScheduler>(cfg);
}

}  // namespace gasched::meta
