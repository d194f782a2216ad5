#pragma once
// Island-model (coarse-grained) genetic algorithm.
//
// The paper adopts a population of 20 — a "micro GA" — citing Chipperfield
// & Fleming's chapter on parallel genetic algorithms (reference [2]). The
// island model is the canonical coarse-grained parallelisation from that
// chapter: K independent sub-populations evolve side by side and exchange
// their best individuals along a ring every few generations. Migration
// restores diversity that a micro-population loses quickly, at the cost
// of K× evaluation work. Islands evolve one after another on the caller's
// thread; parallelism belongs to the replications and sweeps above.
//
// Determinism: every island owns an Rng substream derived from
// (caller stream, island index), so island k's evolution does not depend
// on the order in which islands run.

#include <cstddef>
#include <vector>

#include "ga/engine.hpp"

namespace gasched::ga {

/// Island-model configuration on top of a per-island GaConfig.
struct IslandConfig {
  /// Per-island engine parameters. `ga.max_generations` is the *total*
  /// generation budget; it is spent in epochs of `migration_interval`.
  GaConfig ga;
  /// Number of islands K (1 degenerates to a plain GaEngine run).
  std::size_t islands = 4;
  /// Generations evolved between migrations.
  std::size_t migration_interval = 25;
  /// Individuals copied to the next island per migration (ring topology);
  /// they replace the destination's worst individuals.
  std::size_t migrants = 2;
};

/// Result of an island run: the global best plus per-island statistics.
struct IslandResult {
  GaResult best;  ///< global best individual across all islands
  /// Best objective per island at the end of the run.
  std::vector<double> island_objectives;
  /// Total generations evolved, summed over islands.
  std::size_t total_generations = 0;
};

/// Runs the island-model GA on `problem`.
///
/// `initial` seeds every island (each island draws a rotated slice so
/// islands start decorrelated; the usual caller passes the randomised
/// list-scheduling population). Operators are borrowed and must be
/// thread-safe `const` objects, as in GaEngine: concurrent replications
/// share them. `stop` is evaluated between epochs with the epoch's
/// global-best objective.
IslandResult run_island_ga(const GaProblem& problem, const IslandConfig& cfg,
                           const SelectionOp& selection,
                           const CrossoverOp& crossover,
                           const MutationOp& mutation,
                           std::vector<Chromosome> initial, util::Rng& rng,
                           const StopPredicate& stop = {});

}  // namespace gasched::ga
