// Ablation: probe budget of the re-balancing heuristic. §3.5 fixes "a
// maximum of 5 random searches for a smaller task"; this bench sweeps
// that cap on one scheduling batch to show what the choice trades —
// more probes find a swap more often (better makespan per generation)
// but cost time linearly, the same trade Fig. 4 shows for the number of
// re-balances.
//
// ga_wall_s times the whole exp::steady_state_ga call: the GA run plus
// the evaluator and the start population, which cost O(pop·H·M) and do
// not depend on the probe cap (before, it timed GaEngine::run alone). At
// quick scale, --serial, median of 15 runs per side on a shared 4-vCPU
// host, probes 0/1/2/5/10/20: 2.73/6.03/5.79/5.96/6.27/6.16 ms timing
// the run alone, 2.73/5.70/5.88/6.17/6.38/6.23 ms timing the call.

#include <chrono>

#include "bench_common.hpp"
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
    const ga::RouletteSelection sel;
    const ga::CycleCrossover cx;
    const ga::SwapMutation mut;
    // probes = 0 disables the improvement pass entirely (pure GA).
    const ga::GaEngine engine({.population = p.population,
                               .max_generations = p.generations,
                               .improvement_passes = probes == 0 ? 0u : 1u,
                               .record_history = true},
                              sel, cx, mut);
    std::vector<double> finals(p.reps), reductions(p.reps), walls(p.reps);
    util::for_each_index(p.reps, parallel, [&](std::size_t rep) {
      const exp::BatchInstance batch =
          exp::steady_state_batch(p.seed, rep, p.tasks, p.procs);
      util::Rng ga_rng = util::Rng(p.seed).split(1000 + 100 * rep + pi);
      const auto t0 = std::chrono::steady_clock::now();
      const auto r =
          exp::steady_state_ga(batch, engine, probes, 0.5, ga_rng, ga_rng);
      const auto t1 = std::chrono::steady_clock::now();
      finals[rep] = r.best_objective;
      reductions[rep] =
          1.0 - r.best_objective / r.objective_history.front();
      walls[rep] = std::chrono::duration<double>(t1 - t0).count();
    });
    exp::CellOutcome out;
    out.extras = {{"final_makespan", util::summarize(finals).mean},
                  {"reduction_vs_init", util::summarize(reductions).mean},
                  {"ga_wall_s", util::summarize(walls).mean}};
    return out;
  });

  bench::run_sweep(sweep, p);
  return 0;
}
