// Ablation: selection scheme. The paper uses weighted roulette wheel
// selection (§3.3); this bench compares tournament, rank, and stochastic
// universal sampling on the same batch-scheduling problem.

#include <memory>

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
      "Ablation", "selection schemes on one scheduling batch",
      "design-choice study (not in paper): roulette is the paper's choice",
      p);

  const std::vector<std::pair<std::string, std::shared_ptr<ga::SelectionOp>>>
      ops{
          {"roulette", std::make_shared<ga::RouletteSelection>()},
          {"tournament2", std::make_shared<ga::TournamentSelection>(2)},
          {"tournament4", std::make_shared<ga::TournamentSelection>(4)},
          {"rank", std::make_shared<ga::RankSelection>()},
          {"sus", std::make_shared<ga::SusSelection>()},
      };

  exp::WorkloadSpec spec;  // GA batch: exp::steady_state_batch
  exp::Sweep sweep =
      bench::make_sweep("abl-selection", p, spec, /*mean_comm=*/20.0);
  std::vector<exp::Sweep::Value> values;
  for (const auto& [label, op] : ops) values.push_back({label, {}});
  sweep.axis("selection", std::move(values));
  sweep.extra_columns({"final_makespan", "reduction_vs_init"});
  sweep.runner([&](const exp::SweepCell& cell, bool parallel) {
    const std::size_t oi = cell.index;
    std::vector<double> finals(p.reps), reductions(p.reps);
    auto body = [&](std::size_t rep) {
      const util::Rng base(p.seed);
      const exp::BatchInstance batch =
          exp::steady_state_batch(p.seed, rep, p.tasks, p.procs);
      const core::ScheduleCodec codec(p.tasks, batch.view.size());
      const core::ScheduleEvaluator eval(batch.sizes, batch.view, true);
      const core::ScheduleProblem problem(codec, eval);

      ga::GaConfig cfg;
      cfg.population = p.population;
      cfg.max_generations = p.generations;
      cfg.record_history = true;
      const ga::CycleCrossover cx;
      const ga::SwapMutation mut;
      const ga::GaEngine engine(cfg, *ops[oi].second, cx, mut);
      util::Rng ga_rng = base.split(1000 + 10 * rep + oi);
      auto init = core::initial_population(codec, eval, cfg.population, 0.5,
                                           ga_rng);
      const auto r = engine.run(problem, std::move(init), ga_rng);
      finals[rep] = r.best_objective;
      reductions[rep] =
          1.0 - r.best_objective / r.objective_history.front();
    };
    if (parallel && p.reps > 1) {
      util::global_pool().parallel_for(0, p.reps, body);
    } else {
      for (std::size_t rep = 0; rep < p.reps; ++rep) body(rep);
    }
    exp::CellOutcome out;
    out.extras = {{"final_makespan", util::summarize(finals).mean},
                  {"reduction_vs_init", util::summarize(reductions).mean}};
    return out;
  });

  bench::run_sweep(sweep, p);
  return 0;
}
