// Ablation: initial-population construction (§3.3). The paper assigns a
// percentage of tasks randomly and the rest earliest-finish; this bench
// sweeps that percentage from pure greedy (0) to pure random (1).

#include "bench_common.hpp"
#include "ga/engine.hpp"
#include "util/thread_pool.hpp"

using namespace gasched;

int main(int argc, char** argv) {
  const auto p = bench::parse_params(argc, argv, /*tasks=*/200, /*reps=*/8,
                                     /*generations=*/300);
  bench::print_banner(
      "Ablation", "random fraction of the list-scheduling init",
      "paper claim: mixing random and earliest-finish placement gives a "
      "well-balanced randomised initial population",
      p);

  exp::WorkloadSpec spec;  // GA batch: exp::steady_state_batch
  exp::Sweep sweep =
      bench::make_sweep("abl-init", p, spec, /*mean_comm=*/20.0);
  sweep.axis("random_fraction", {0.0, 0.25, 0.5, 0.75, 1.0}, {});
  sweep.extra_columns(
      {"initial_makespan", "final_makespan", "reduction"});
  sweep.runner([&](const exp::SweepCell& cell, bool parallel) {
    const double frac = cell.coord_value("random_fraction");
    const ga::RouletteSelection sel;
    const ga::CycleCrossover cx;
    const ga::SwapMutation mut;
    const ga::GaEngine engine({.population = p.population,
                               .max_generations = p.generations,
                               .record_history = true},
                              sel, cx, mut);
    std::vector<double> initials(p.reps), finals(p.reps);
    util::for_each_index(p.reps, parallel, [&](std::size_t rep) {
      util::Rng ga_rng = util::Rng(p.seed).split(5000 + rep);
      const auto r = exp::steady_state_ga(
          exp::steady_state_batch(p.seed, rep, p.tasks, p.procs), engine,
          exp::kDefaultRebalanceProbes, frac, ga_rng, ga_rng);
      initials[rep] = r.objective_history.front();
      finals[rep] = r.best_objective;
    });
    const double init_ms = util::summarize(initials).mean;
    const double final_ms = util::summarize(finals).mean;
    exp::CellOutcome out;
    out.extras = {{"initial_makespan", init_ms},
                  {"final_makespan", final_ms},
                  {"reduction", 1.0 - final_ms / init_ms}};
    return out;
  });

  bench::run_sweep(sweep, p);
  return 0;
}
