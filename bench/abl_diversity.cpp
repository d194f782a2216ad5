// Ablation: genetic diversity of the micro GA. §4.2 adopts a population
// of 20 ("micro GA", ref [2]) to keep the scheduler fast; the cost is
// genetic diversity, which small populations burn through quickly. This
// bench tracks the normalised genotype diversity (ga/stats.hpp) and the
// best makespan over generations for several population sizes on one
// scheduling batch, showing what the micro-GA choice trades away and how
// the re-balancing heuristic partially compensates.

#include "bench_common.hpp"
#include "core/fitness.hpp"
#include "core/init.hpp"
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
    const auto pop = static_cast<std::size_t>(
        cell.coord_value("population"));
    std::vector<double> d0(p.reps), dmid(p.reps), dend(p.reps),
        finals(p.reps);
    auto body = [&](std::size_t rep) {
      const util::Rng base(p.seed);
      const exp::BatchInstance batch =
          exp::steady_state_batch(p.seed, rep, p.tasks, p.procs);
      const core::ScheduleCodec codec(p.tasks, batch.view.size());
      const core::ScheduleEvaluator eval(batch.sizes, batch.view, true);
      const core::ScheduleProblem problem(codec, eval);

      ga::GaConfig cfg;
      cfg.population = pop;
      cfg.max_generations = p.generations;
      cfg.record_stats = true;
      static const ga::RouletteSelection sel;
      static const ga::CycleCrossover cx;
      static const ga::SwapMutation mut;
      const ga::GaEngine engine(cfg, sel, cx, mut);
      util::Rng ga_rng = base.split(1000 + 100 * rep + pi);
      auto init = core::initial_population(codec, eval, cfg.population, 0.5,
                                           ga_rng);
      const auto r = engine.run(problem, std::move(init), ga_rng);
      finals[rep] = r.best_objective;
      if (!r.stats_history.empty()) {
        d0[rep] = r.stats_history.front().diversity;
        dmid[rep] = r.stats_history[r.stats_history.size() / 2].diversity;
        dend[rep] = r.stats_history.back().diversity;
      }
    };
    if (parallel && p.reps > 1) {
      util::global_pool().parallel_for(0, p.reps, body);
    } else {
      for (std::size_t rep = 0; rep < p.reps; ++rep) body(rep);
    }
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
