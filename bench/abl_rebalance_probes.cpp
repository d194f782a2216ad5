// Ablation: probe budget of the re-balancing heuristic. §3.5 fixes "a
// maximum of 5 random searches for a smaller task"; this bench sweeps
// that cap on one scheduling batch to show what the choice trades —
// more probes find a swap more often (better makespan per generation)
// but cost time linearly, the same trade Fig. 4 shows for the number of
// re-balances.

#include <chrono>

#include "bench_common.hpp"
#include "core/fitness.hpp"
#include "core/init.hpp"
#include "ga/engine.hpp"
#include "util/thread_pool.hpp"

using namespace gasched;

int main(int argc, char** argv) {
  const auto p = bench::parse_params(argc, argv, /*tasks=*/200, /*reps=*/8,
                                     /*generations=*/300);
  bench::print_banner(
      "Ablation", "re-balance probe cap (paper SS3.5 fixes 5)",
      "design-choice study (not in paper): makespan improves with more "
      "probes at diminishing returns; GA wall time grows with the cap",
      p);

  exp::WorkloadSpec spec;  // GA batch: exp::steady_state_batch
  exp::Sweep sweep =
      bench::make_sweep("abl-probes", p, spec, /*mean_comm=*/20.0);
  sweep.axis("probes", {0, 1, 2, 5, 10, 20}, {});
  sweep.extra_columns(
      {"final_makespan", "reduction_vs_init", "ga_wall_s"});
  sweep.runner([&](const exp::SweepCell& cell, bool parallel) {
    const std::size_t pi = cell.index;
    const auto probes = static_cast<std::size_t>(
        cell.coord_value("probes"));
    std::vector<double> finals(p.reps), reductions(p.reps), walls(p.reps);
    auto body = [&](std::size_t rep) {
      const util::Rng base(p.seed);
      const exp::BatchInstance batch =
          exp::steady_state_batch(p.seed, rep, p.tasks, p.procs);
      const core::ScheduleCodec codec(p.tasks, batch.view.size());
      const core::ScheduleEvaluator eval(batch.sizes, batch.view, true);
      const core::ScheduleProblem problem(codec, eval, probes);

      ga::GaConfig cfg;
      cfg.population = p.population;
      cfg.max_generations = p.generations;
      cfg.record_history = true;
      // probes = 0 disables the improvement pass entirely (pure GA).
      cfg.improvement_passes = probes == 0 ? 0 : 1;
      static const ga::RouletteSelection sel;
      static const ga::CycleCrossover cx;
      static const ga::SwapMutation mut;
      const ga::GaEngine engine(cfg, sel, cx, mut);
      util::Rng ga_rng = base.split(1000 + 100 * rep + pi);
      auto init = core::initial_population(codec, eval, cfg.population, 0.5,
                                           ga_rng);
      const auto t0 = std::chrono::steady_clock::now();
      const auto r = engine.run(problem, std::move(init), ga_rng);
      const auto t1 = std::chrono::steady_clock::now();
      finals[rep] = r.best_objective;
      reductions[rep] =
          1.0 - r.best_objective / r.objective_history.front();
      walls[rep] = std::chrono::duration<double>(t1 - t0).count();
    };
    if (parallel && p.reps > 1) {
      util::global_pool().parallel_for(0, p.reps, body);
    } else {
      for (std::size_t rep = 0; rep < p.reps; ++rep) body(rep);
    }
    exp::CellOutcome out;
    out.extras = {{"final_makespan", util::summarize(finals).mean},
                  {"reduction_vs_init", util::summarize(reductions).mean},
                  {"ga_wall_s", util::summarize(walls).mean}};
    return out;
  });

  bench::run_sweep(sweep, p);
  return 0;
}
