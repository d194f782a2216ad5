#include "meta/hill_climb.hpp"

#include <algorithm>

#include "core/init.hpp"
#include "meta/assignment.hpp"

namespace gasched::meta {

HillClimbScheduler::HillClimbScheduler(HillClimbConfig cfg)
    : LocalSearchBatchPolicy(cfg.batch), cfg_(cfg) {}

void HillClimbScheduler::search(const core::ScheduleEvaluator& eval,
                                core::FlatSchedule& schedule,
                                util::Rng& rng) const {
  const std::size_t M = eval.num_procs();
  const std::size_t N = eval.num_tasks();
  if (M < 2 || N < 2) return;

  const std::size_t max_samples =
      cfg_.max_samples > 0 ? cfg_.max_samples
                           : std::max<std::size_t>(256, 16 * N);

  // If no climb beats the start solution, `schedule` is left untouched
  // (preserving its original queue order); otherwise it is rebuilt from
  // the best flat assignment snapshot.
  std::vector<std::size_t> best;
  bool improved = false;
  LoadTracker state(eval, schedule);
  double best_makespan = state.makespan();
  core::FlatSchedule restart;  // reused restart start solution

  const std::size_t restarts = std::max<std::size_t>(cfg_.restarts, 1);
  for (std::size_t r = 0; r < restarts; ++r) {
    // Restart 0 climbs from the provided start solution; later restarts
    // climb from fresh half-randomised list schedules.
    if (r > 0) {
      core::list_schedule(eval, 0.5, rng, restart);
      state.reset(eval, restart);
    }

    std::size_t stall = 0;
    for (std::size_t i = 0; i < max_samples && stall < cfg_.stall_samples;
         ++i) {
      const Move m = state.random_move(rng);
      if (state.makespan_delta(m) < 0.0) {
        state.apply(m);
        stall = 0;
      } else {
        ++stall;
      }
    }

    const double ms = state.makespan();
    if (ms < best_makespan) {
      best_makespan = ms;
      best.assign(state.assignment().begin(), state.assignment().end());
      improved = true;
    }
  }
  if (improved) schedule.assign_grouped(best, M);
}

std::unique_ptr<HillClimbScheduler> make_hill_climb_scheduler(
    HillClimbConfig cfg) {
  return std::make_unique<HillClimbScheduler>(cfg);
}

}  // namespace gasched::meta
