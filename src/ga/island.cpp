#include "ga/island.hpp"

#include <algorithm>
#include <limits>
#include <numeric>
#include <stdexcept>

namespace gasched::ga {

namespace {

/// Indices of `pop` sorted by ascending cached objective (best first).
/// Every individual leaves an epoch with its evaluation cached
/// (GaEngine::run_seeded's export contract), and evaluation is pure, so
/// ranking on the cache reproduces the re-evaluating ranking bit for bit
/// with zero evaluate() calls at the migration boundary.
std::vector<std::size_t> rank_by_cached_objective(
    const EvaluatedPopulation& pop) {
  std::vector<std::size_t> order(pop.chrom.size());
  std::iota(order.begin(), order.end(), std::size_t{0});
  std::stable_sort(order.begin(), order.end(),
                   [&](std::size_t a, std::size_t b) {
                     return pop.eval[a].objective < pop.eval[b].objective;
                   });
  return order;
}

}  // namespace

IslandResult run_island_ga(const GaProblem& problem, const IslandConfig& cfg,
                           const SelectionOp& selection,
                           const CrossoverOp& crossover,
                           const MutationOp& mutation,
                           std::vector<Chromosome> initial, util::Rng& rng,
                           const StopPredicate& stop) {
  if (cfg.islands == 0) {
    throw std::invalid_argument("run_island_ga: islands must be >= 1");
  }
  if (cfg.migration_interval == 0) {
    throw std::invalid_argument("run_island_ga: migration_interval must be >= 1");
  }
  if (initial.empty()) {
    throw std::invalid_argument("run_island_ga: empty initial population");
  }

  const std::size_t K = cfg.islands;
  const std::size_t pop_size = cfg.ga.population;

  // Decorrelated island seeds: island k takes a rotated slice of the
  // seed population. Nothing is cached yet — each island's first epoch
  // prices its seeds; thereafter evaluations ride along with the
  // populations across every migration boundary.
  std::vector<EvaluatedPopulation> pops(K);
  for (std::size_t k = 0; k < K; ++k) {
    pops[k].chrom.reserve(pop_size);
    for (std::size_t i = 0; i < pop_size; ++i) {
      pops[k].chrom.push_back(initial[(k * pop_size + i) % initial.size()]);
    }
  }

  // Independent per-island streams: island order does not matter.
  std::vector<util::Rng> rngs;
  rngs.reserve(K);
  for (std::size_t k = 0; k < K; ++k) rngs.push_back(rng.split(k + 1));

  IslandResult result;
  result.island_objectives.assign(K, std::numeric_limits<double>::infinity());
  std::vector<GaResult> island_best(K);
  std::vector<std::size_t> island_gens(K, 0);

  const std::size_t total_budget = cfg.ga.max_generations;
  std::size_t spent = 0;
  while (spent < total_budget) {
    const std::size_t epoch_gens =
        std::min(cfg.migration_interval, total_budget - spent);
    if (stop && stop(spent, result.best.best_objective)) break;
    if (cfg.ga.target_objective > 0.0 &&
        result.best.best_objective <= cfg.ga.target_objective) {
      break;
    }

    GaConfig epoch_cfg = cfg.ga;
    epoch_cfg.max_generations = epoch_gens;
    epoch_cfg.record_history = false;
    const GaEngine engine(epoch_cfg, selection, crossover, mutation);

    for (std::size_t k = 0; k < K; ++k) {
      EvaluatedPopulation final_pop;
      GaResult r = engine.run_seeded(problem, std::move(pops[k]), rngs[k], {},
                                     &final_pop);
      pops[k] = std::move(final_pop);
      island_gens[k] += r.generations;
      if (r.best_objective < island_best[k].best_objective) {
        island_best[k] = std::move(r);
      }
    }
    spent += epoch_gens;

    // Ring migration: the best `migrants` of island k replace the worst
    // individuals of island (k+1) mod K. Copies are taken from the
    // pre-migration populations so the order of islands is immaterial.
    // Migrants travel with their cached evaluations, so the boundary
    // performs zero evaluate() calls.
    if (K > 1 && cfg.migrants > 0 && spent < total_budget) {
      const std::size_t migrants = std::min(cfg.migrants, pop_size);
      std::vector<std::vector<Chromosome>> outgoing(K);
      std::vector<std::vector<GaProblem::Evaluation>> outgoing_eval(K);
      std::vector<std::vector<std::size_t>> order(K);
      for (std::size_t k = 0; k < K; ++k) {
        order[k] = rank_by_cached_objective(pops[k]);
        for (std::size_t m = 0; m < migrants; ++m) {
          outgoing[k].push_back(pops[k].chrom[order[k][m]]);
          outgoing_eval[k].push_back(pops[k].eval[order[k][m]]);
        }
      }
      for (std::size_t k = 0; k < K; ++k) {
        const std::size_t dst = (k + 1) % K;
        for (std::size_t m = 0; m < migrants; ++m) {
          // Worst individuals sit at the back of the ranking.
          const std::size_t victim = order[dst][pop_size - 1 - m];
          pops[dst].chrom[victim] = outgoing[k][m];
          pops[dst].eval[victim] = outgoing_eval[k][m];
        }
      }
    }
  }

  for (std::size_t k = 0; k < K; ++k) {
    result.total_generations += island_gens[k];
    result.island_objectives[k] = island_best[k].best_objective;
    if (island_best[k].best_objective < result.best.best_objective) {
      result.best = island_best[k];
    }
  }
  return result;
}

}  // namespace gasched::ga
