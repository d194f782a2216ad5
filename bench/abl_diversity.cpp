// Ablation: genetic diversity of the micro GA. §4.2 adopts a population
// of 20 ("micro GA", ref [2]) to keep the scheduler fast; the cost is
// genetic diversity, which small populations burn through quickly. This
// bench tracks the normalised genotype diversity (ga/stats.hpp) and the
// best makespan over generations for several population sizes on one
// scheduling batch, showing what the micro-GA choice trades away and how
// the re-balancing heuristic partially compensates.

#include "bench_common.hpp"
#include "ga/engine.hpp"
#include "util/thread_pool.hpp"

using namespace gasched;

int main(int argc, char** argv) {
  const auto p = bench::parse_params(argc, argv, /*tasks=*/200, /*reps=*/6,
                                     /*generations=*/300);
  bench::print_banner(
      "Ablation", "population size vs genetic diversity (micro GA, SS4.2)",
      "design-choice study (not in paper): small populations converge "
      "fast but lose diversity; population 20 (the paper's pick) retains "
      "near-large-population quality at a fraction of the cost",
      p);

  exp::WorkloadSpec spec;  // GA batch: exp::steady_state_batch
  exp::Sweep sweep =
      bench::make_sweep("abl-diversity", p, spec, /*mean_comm=*/20.0);
  sweep.axis("population", {6, 10, 20, 40, 80}, {});
  sweep.extra_columns({"diversity_t0", "diversity_mid", "diversity_end",
                       "final_makespan"});
  sweep.runner([&](const exp::SweepCell& cell, bool parallel) {
    const std::size_t pi = cell.index;
    const ga::RouletteSelection sel;
    const ga::CycleCrossover cx;
    const ga::SwapMutation mut;
    const ga::GaEngine engine(
        {.population = static_cast<std::size_t>(cell.coord_value("population")),
         .max_generations = p.generations,
         .record_stats = true},
        sel, cx, mut);
    std::vector<double> d0(p.reps), dmid(p.reps), dend(p.reps),
        finals(p.reps);
    util::for_each_index(p.reps, parallel, [&](std::size_t rep) {
      util::Rng ga_rng = util::Rng(p.seed).split(1000 + 100 * rep + pi);
      const auto r = exp::steady_state_ga(
          exp::steady_state_batch(p.seed, rep, p.tasks, p.procs), engine,
          exp::kDefaultRebalanceProbes, 0.5, ga_rng, ga_rng);
      finals[rep] = r.best_objective;
      if (!r.stats_history.empty()) {
        d0[rep] = r.stats_history.front().diversity;
        dmid[rep] = r.stats_history[r.stats_history.size() / 2].diversity;
        dend[rep] = r.stats_history.back().diversity;
      }
    });
    exp::CellOutcome out;
    out.extras = {{"diversity_t0", util::summarize(d0).mean},
                  {"diversity_mid", util::summarize(dmid).mean},
                  {"diversity_end", util::summarize(dend).mean},
                  {"final_makespan", util::summarize(finals).mean}};
    return out;
  });

  bench::run_sweep(sweep, p);
  return 0;
}
