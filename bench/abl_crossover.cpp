// Ablation: crossover operator choice. The paper uses cycle crossover
// (following Zomaya & Teh); this bench compares it with PMX, order, and
// position-based crossover on the same batch-scheduling problem.

#include <memory>

#include "bench_common.hpp"
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
    const ga::RouletteSelection sel;
    const ga::SwapMutation mut;
    const ga::GaEngine engine({.population = p.population,
                               .max_generations = p.generations,
                               .record_history = true},
                              sel, *ops[oi].second, mut);
    std::vector<double> finals(p.reps), reductions(p.reps);
    util::for_each_index(p.reps, parallel, [&](std::size_t rep) {
      util::Rng ga_rng = util::Rng(p.seed).split(1000 + 10 * rep + oi);
      const auto r = exp::steady_state_ga(
          exp::steady_state_batch(p.seed, rep, p.tasks, p.procs), engine,
          exp::kDefaultRebalanceProbes, 0.5, ga_rng, ga_rng);
      finals[rep] = r.best_objective;
      reductions[rep] =
          1.0 - r.best_objective / r.objective_history.front();
    });
    exp::CellOutcome out;
    out.extras = {{"final_makespan", util::summarize(finals).mean},
                  {"reduction_vs_init", util::summarize(reductions).mean}};
    return out;
  });

  bench::run_sweep(sweep, p);
  return 0;
}
