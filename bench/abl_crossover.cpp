// Ablation: crossover operator choice. The paper uses cycle crossover
// (following Zomaya & Teh); this bench compares it with PMX, order, and
// position-based crossover on the same batch-scheduling problem.

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
      "Ablation", "crossover operators on one scheduling batch",
      "design-choice study (not in paper): cycle crossover is the paper's "
      "choice; alternatives should be in the same quality band",
      p);

  const std::vector<std::pair<std::string, std::shared_ptr<ga::CrossoverOp>>>
      ops{
          {"cycle", std::make_shared<ga::CycleCrossover>()},
          {"pmx", std::make_shared<ga::PmxCrossover>()},
          {"order", std::make_shared<ga::OrderCrossover>()},
          {"position", std::make_shared<ga::PositionCrossover>()},
      };

  exp::WorkloadSpec spec;  // GA batch: exp::steady_state_batch
  exp::Sweep sweep =
      bench::make_sweep("abl-crossover", p, spec, /*mean_comm=*/20.0);
  std::vector<exp::Sweep::Value> values;
  for (const auto& [label, op] : ops) values.push_back({label, {}});
  sweep.axis("crossover", std::move(values));
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
      const ga::RouletteSelection sel;
      const ga::SwapMutation mut;
      const ga::GaEngine engine(cfg, sel, *ops[oi].second, mut);
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
