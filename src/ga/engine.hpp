#pragma once
// Generic genetic-algorithm loop (paper Fig 1):
//
//     initialise population
//     do { crossover; random mutation; selection } while (!stopping)
//     return best individual
//
// The engine is problem-agnostic: a GaProblem supplies fitness (to
// maximise), a reporting objective (e.g. makespan, to minimise), and an
// optional local-improvement operator (the paper's re-balancing
// heuristic, applied to every individual each generation).
//
// Evaluation core invariants (see docs/evaluation.md):
//  * fitness/objective are cached per individual with dirty tracking —
//    elites and survivors untouched by crossover/mutation/improve are
//    never re-evaluated;
//  * evaluation goes through a problem-owned Workspace so hot paths can
//    decode/evaluate without allocating;
//  * one run executes on its caller's thread; parallelism lives above it
//    (sweeps, replications, federation), never inside a run.

#include <cstdint>
#include <functional>
#include <limits>
#include <memory>
#include <span>
#include <vector>

#include "core/numeric.hpp"
#include "ga/chromosome.hpp"
#include "ga/crossover.hpp"
#include "ga/mutation.hpp"
#include "ga/selection.hpp"
#include "ga/stats.hpp"
#include "util/rng.hpp"

namespace gasched::ga {

/// Problem interface consumed by GaEngine.
class GaProblem {
 public:
  /// Combined result of evaluating one individual.
  struct Evaluation {
    double fitness = 0.0;    ///< >= 0; larger is better (paper: F = 1/E)
    double objective = 0.0;  ///< smaller is better (paper: makespan)
  };

  /// Reusable, problem-owned evaluation scratch (decode buffers etc.).
  /// The engine creates one per run via make_workspace() and passes it
  /// back on every evaluate()/improve() call.
  class Workspace {
   public:
    virtual ~Workspace() = default;

    /// Improve-supplied evaluation channel: an improve() implementation
    /// that fully prices the chromosome anyway (e.g. the re-balancing
    /// heuristic) may publish that evaluation here, sparing the engine a
    /// redundant evaluate() call. Contract: when has_improve_evaluation
    /// is set after an improve() call, improve_evaluation must be
    /// bit-identical to evaluate(c, ws) of the chromosome as improve()
    /// left it. The engine clears the flag before every improve() call
    /// and discards captured values if a later pass modifies the
    /// chromosome without re-supplying.
    bool has_improve_evaluation = false;
    Evaluation improve_evaluation{};

    /// Continuation flag, set by the engine before every improve()
    /// call: true exactly when `c` is the chromosome the previous
    /// improve() call on this workspace left and nothing has used the
    /// workspace since — passes 2..k of one individual's
    /// GaConfig::improvement_passes, never a new individual, a new
    /// generation or the elite copy. An improve() implementation may
    /// then reuse what its previous call left in the workspace instead
    /// of looking `c` up again (the re-balancing heuristic reuses its
    /// pricing-memo entry). Ignoring it is always safe.
    bool improve_continues = false;
  };

  virtual ~GaProblem() = default;

  /// Fitness of `c`, >= 0; larger is better. (Paper: F = 1/E.)
  virtual double fitness(const Chromosome& c) const = 0;
  /// Reporting/stopping objective; smaller is better. (Paper: makespan.)
  virtual double objective(const Chromosome& c) const = 0;

  /// Evaluates fitness and objective together through `ws` (may be null
  /// when make_workspace() returned null). Must be a pure function of `c`:
  /// the engine caches the result and never re-evaluates a clean
  /// individual. The default adapter suits problems without shared decode
  /// state.
  virtual Evaluation evaluate(const Chromosome& c, Workspace* ws) const {
    (void)ws;
    return {fitness(c), objective(c)};
  }

  /// Evaluates a block of individuals: for each k, out[k] receives the
  /// evaluation of pop[indices[k]]. The engine routes every evaluation
  /// sweep through this hook, and this loop of evaluate() in index order
  /// is its only implementation in the library. It stays a virtual
  /// because bench/e2e/gasched_bench.cpp's TracedProblem overrides it to
  /// time the engine's pricing; the next change to the benchmark can fold
  /// it into the engine. Same purity
  /// contract as evaluate(); `out` has indices.size() slots.
  virtual void evaluate_batch(std::span<const Chromosome> pop,
                              std::span<const std::size_t> indices,
                              Workspace* ws, Evaluation* out) const {
    for (std::size_t k = 0; k < indices.size(); ++k) {
      out[k] = evaluate(pop[indices[k]], ws);
    }
  }

  /// Creates an evaluation workspace (null when the problem needs none).
  virtual std::unique_ptr<Workspace> make_workspace() const {
    return nullptr;
  }

  /// Optional local improvement applied in place (paper's re-balancing
  /// heuristic). Called `GaConfig::improvement_passes` times per
  /// individual per generation, always serially (it consumes `rng`).
  /// Returns true when `c` may have been modified — the engine uses this
  /// for dirty tracking, so returning false for a modified chromosome
  /// serves stale cached fitness. Default: no-op.
  virtual bool improve(Chromosome& c, util::Rng& rng, Workspace* ws) const {
    (void)c;
    (void)rng;
    (void)ws;
    return false;
  }
};

/// Engine configuration.
struct GaConfig {
  /// Population size ρ. The paper uses 20 (a "micro GA", §4.2).
  std::size_t population = 20;
  /// Hard generation cap (paper §3.4: 1000).
  std::size_t max_generations = 1000;
  /// Probability a selected pair undergoes crossover.
  double crossover_rate = 0.8;
  /// Individuals mutated per generation (paper: one randomly chosen
  /// individual is swap-mutated).
  std::size_t mutants_per_generation = 1;
  /// Local-improvement passes per individual per generation (paper: a
  /// single re-balance; Fig 3 also explores 0 and 50).
  std::size_t improvement_passes = 1;
  /// Stop once the best objective is <= this value (paper: "if it is less
  /// than a specified minimum"). Disabled when <= 0.
  double target_objective = 0.0;
  /// Stop after this many consecutive generations without improvement of
  /// the best objective (convergence detection). Disabled when 0.
  std::size_t stall_generations = 0;
  /// Keep the best individual alive across generations.
  bool elitism = true;
  /// Record the best objective after every generation (Fig 3 data).
  bool record_history = false;
  /// Record per-generation population statistics (fitness moments and
  /// genotype diversity; see ga/stats.hpp). The diversity sampler uses a
  /// stream derived via Rng::split, so enabling this never changes the
  /// evolution itself.
  bool record_stats = false;
  /// Unused compatibility stub (core/numeric.hpp): read only by
  /// bench/e2e/gasched_bench.cpp, which passes it to the
  /// ScheduleEvaluator constructor. The next change to the benchmark
  /// drops both.
  core::NumericMode numeric_mode = core::NumericMode::kExact;
};

/// Outcome of one GA run.
struct GaResult {
  Chromosome best;                     ///< best individual ever seen
  double best_fitness = 0.0;           ///< its fitness
  double best_objective =              ///< its objective
      std::numeric_limits<double>::infinity();
  std::size_t generations = 0;         ///< generations actually executed
  std::vector<double> objective_history;  ///< per-generation best objective
  /// Per-generation population statistics (entry 0 = initial population;
  /// empty unless GaConfig::record_stats).
  std::vector<GenerationStats> stats_history;
  /// Evaluations actually performed (dirty individuals only); a caching
  /// observability counter — (generations+1) * population without it.
  std::size_t evaluations = 0;
};

/// External stop predicate, checked once per generation. Returning true
/// stops evolution (paper: "the GA will also stop evolving if one of the
/// processors becomes idle"). `generation` is 0-based.
using StopPredicate = std::function<bool(std::size_t generation,
                                         double best_objective)>;

/// A population together with its cached evaluations — the currency of
/// multi-epoch evolution (island migration): an epoch's final population
/// leaves with every individual priced, and the next epoch's engine seeds
/// those caches instead of re-evaluating. `eval[i]` is valid only when
/// `cached[i]` is non-zero; both arrays are parallel to `chrom` (and may
/// be empty to mean "nothing cached"). Cached values must be bit-identical
/// to what evaluate() would return — evaluation is pure, so carrying them
/// across epochs can never change results, only evaluation counts.
struct EvaluatedPopulation {
  std::vector<Chromosome> chrom;
  std::vector<GaProblem::Evaluation> eval;
  std::vector<std::uint8_t> cached;
};

/// Reusable GA engine parameterised by operator strategies.
class GaEngine {
 public:
  /// Operators are borrowed; they must outlive the engine.
  GaEngine(GaConfig cfg, const SelectionOp& selection,
           const CrossoverOp& crossover, const MutationOp& mutation);

  /// Evolves `initial` (resized/padded to cfg.population by cloning) and
  /// returns the best individual. `stop` may be empty.
  GaResult run(const GaProblem& problem, std::vector<Chromosome> initial,
               util::Rng& rng, const StopPredicate& stop = {}) const;

  /// Cache-carrying variant: seeds the population from `initial.chrom`
  /// and installs each cached evaluation instead of marking the slot
  /// dirty, so individuals priced by a previous epoch are never
  /// re-evaluated. On return `final_population` (when non-null) holds the
  /// last generation with every evaluation cached. Results are
  /// bit-identical to run() on the same chromosomes; only the evaluation
  /// count differs.
  GaResult run_seeded(const GaProblem& problem, EvaluatedPopulation initial,
                      util::Rng& rng, const StopPredicate& stop = {},
                      EvaluatedPopulation* final_population = nullptr) const;

  /// Configuration in use.
  const GaConfig& config() const noexcept { return cfg_; }

 private:
  GaConfig cfg_;
  const SelectionOp& selection_;
  const CrossoverOp& crossover_;
  const MutationOp& mutation_;
};

}  // namespace gasched::ga
