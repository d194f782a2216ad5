#include "ga/engine.hpp"

#include <algorithm>
#include <stdexcept>
#include <utility>

#include "util/thread_pool.hpp"

namespace gasched::ga {

GaEngine::GaEngine(GaConfig cfg, const SelectionOp& selection,
                   const CrossoverOp& crossover, const MutationOp& mutation)
    : cfg_(cfg),
      selection_(selection),
      crossover_(crossover),
      mutation_(mutation) {
  if (cfg_.population < 2) {
    throw std::invalid_argument("GaEngine: population must be >= 2");
  }
}

namespace {

/// Double-buffered population storage. Chromosomes, cached evaluations,
/// and dirty flags live in parallel arrays; generation transitions swap
/// the buffers so chromosome capacity is reused instead of reallocated.
struct PopulationBuffer {
  std::vector<Chromosome> chrom;
  std::vector<double> fitness;
  std::vector<double> objective;
  std::vector<std::uint8_t> dirty;

  explicit PopulationBuffer(std::size_t n)
      : chrom(n), fitness(n, 0.0), objective(n, 0.0), dirty(n, 1) {}

  /// Copies individual `src_i` of `src` into slot `i`, carrying its
  /// cached evaluation (clean copy; no re-evaluation needed).
  void copy_from(std::size_t i, const PopulationBuffer& src,
                 std::size_t src_i) {
    chrom[i].assign(src.chrom[src_i].begin(), src.chrom[src_i].end());
    fitness[i] = src.fitness[src_i];
    objective[i] = src.objective[src_i];
    dirty[i] = 0;
  }
};

}  // namespace

GaResult GaEngine::run(const GaProblem& problem,
                       std::vector<Chromosome> initial, util::Rng& rng,
                       const StopPredicate& stop,
                       std::vector<Chromosome>* final_population) const {
  EvaluatedPopulation seed;
  seed.chrom = std::move(initial);
  if (final_population == nullptr) {
    return run_seeded(problem, std::move(seed), rng, stop, nullptr);
  }
  EvaluatedPopulation out;
  GaResult r = run_seeded(problem, std::move(seed), rng, stop, &out);
  *final_population = std::move(out.chrom);
  return r;
}

GaResult GaEngine::run_seeded(const GaProblem& problem,
                              EvaluatedPopulation initial, util::Rng& rng,
                              const StopPredicate& stop,
                              EvaluatedPopulation* final_population) const {
  if (initial.chrom.empty()) {
    throw std::invalid_argument("GaEngine::run: empty initial population");
  }
  const std::size_t P = cfg_.population;
  // Pad/truncate to the configured population size by cycling the seeds,
  // installing any cached evaluations instead of dirtying the slot. A
  // seed's last (usually only) slot takes it by move: `initial` lives for
  // the whole run, so a copy would keep every seed allocated twice.
  PopulationBuffer pop(P);
  const std::size_t n = initial.chrom.size();
  for (std::size_t i = 0; i < P; ++i) {
    const std::size_t src = i % n;
    if (i + n >= P) {
      pop.chrom[i] = std::move(initial.chrom[src]);
    } else {
      pop.chrom[i] = initial.chrom[src];
    }
    if (src < initial.cached.size() && initial.cached[src] != 0 &&
        src < initial.eval.size()) {
      pop.fitness[i] = initial.eval[src].fitness;
      pop.objective[i] = initial.eval[src].objective;
      pop.dirty[i] = 0;
    }
  }
  PopulationBuffer next(P);

  GaResult result;

  // One workspace for all serial evaluation/improvement; extra workspaces
  // are created lazily, one per parallel chunk, when the population is
  // large enough for pool evaluation.
  std::unique_ptr<GaProblem::Workspace> serial_ws = problem.make_workspace();
  std::vector<std::unique_ptr<GaProblem::Workspace>> chunk_ws;

  const bool use_pool =
      cfg_.parallel_evaluation && P > cfg_.parallel_eval_threshold;
  std::vector<std::size_t> dirty_idx;
  dirty_idx.reserve(P);
  std::vector<GaProblem::Evaluation> dirty_eval;
  dirty_eval.reserve(P);

  auto evaluate_all = [&] {
    // Evaluate only dirty individuals; cached entries are bit-identical
    // to a re-evaluation because evaluate() is pure. Both sweeps route
    // through evaluate_batch so problems with a vectorized population
    // path price each block at once; the default evaluate_batch is a
    // plain evaluate() loop, preserving the historical behaviour bit
    // for bit.
    dirty_idx.clear();
    for (std::size_t i = 0; i < P; ++i) {
      if (pop.dirty[i]) dirty_idx.push_back(i);
    }
    dirty_eval.resize(dirty_idx.size());
    const std::span<const Chromosome> all(pop.chrom);
    const std::span<const std::size_t> dirty(dirty_idx);
    if (use_pool && !dirty_idx.empty()) {
      util::ThreadPool& pool = util::global_pool();
      const std::size_t chunks = std::max<std::size_t>(
          1, std::min(dirty_idx.size(), pool.size()));
      while (chunk_ws.size() < chunks) {
        chunk_ws.push_back(problem.make_workspace());
      }
      const std::size_t per = (dirty_idx.size() + chunks - 1) / chunks;
      pool.parallel_for(0, chunks, [&](std::size_t c) {
        const std::size_t lo = c * per;
        const std::size_t hi = std::min(lo + per, dirty_idx.size());
        if (lo >= hi) return;
        problem.evaluate_batch(all, dirty.subspan(lo, hi - lo),
                               chunk_ws[c].get(), dirty_eval.data() + lo);
      });
    } else if (!dirty_idx.empty()) {
      problem.evaluate_batch(all, dirty, serial_ws.get(), dirty_eval.data());
    }
    for (std::size_t k = 0; k < dirty_idx.size(); ++k) {
      const std::size_t i = dirty_idx[k];
      pop.fitness[i] = dirty_eval[k].fitness;
      pop.objective[i] = dirty_eval[k].objective;
      pop.dirty[i] = 0;
    }
    result.evaluations += dirty_idx.size();
    // Best-so-far reduction stays serial and in index order so ties keep
    // the same chromosome regardless of thread count.
    for (std::size_t i = 0; i < P; ++i) {
      if (pop.objective[i] < result.best_objective) {
        result.best_objective = pop.objective[i];
        result.best_fitness = pop.fitness[i];
        result.best = pop.chrom[i];
      }
    }
  };

  // Diversity sampling draws from a derived stream so that enabling
  // statistics cannot perturb the evolution's own randomness.
  util::Rng stats_rng = rng.split(0x57A7);
  auto record_stats = [&](std::size_t gen) {
    if (!cfg_.record_stats) return;
    result.stats_history.push_back(summarize_generation(
        gen, pop.chrom, pop.fitness, pop.objective, cfg_.diversity_pairs,
        stats_rng));
  };

  evaluate_all();
  if (cfg_.record_history) {
    result.objective_history.reserve(cfg_.max_generations + 1);
    result.objective_history.push_back(result.best_objective);
  }
  record_stats(0);

  std::vector<std::size_t> parents;
  parents.reserve(P);

  std::size_t stall = 0;
  for (std::size_t gen = 0; gen < cfg_.max_generations; ++gen) {
    if (cfg_.target_objective > 0.0 &&
        result.best_objective <= cfg_.target_objective) {
      break;
    }
    if (cfg_.stall_generations > 0 && stall >= cfg_.stall_generations) break;
    if (stop && stop(gen, result.best_objective)) break;
    const double best_before = result.best_objective;

    // --- selection: breed the next generation from fitness weights ------
    selection_.select_into(pop.fitness, P, rng, parents);
    for (std::size_t i = 0; i + 1 < parents.size(); i += 2) {
      const std::size_t pa = parents[i];
      const std::size_t pb = parents[i + 1];
      if (rng.bernoulli(cfg_.crossover_rate)) {
        crossover_.apply_into(pop.chrom[pa], pop.chrom[pb], next.chrom[i],
                              next.chrom[i + 1], rng);
        next.dirty[i] = 1;
        next.dirty[i + 1] = 1;
      } else {
        // Survivors keep their parents' cached evaluations.
        next.copy_from(i, pop, pa);
        next.copy_from(i + 1, pop, pb);
      }
    }
    if ((parents.size() & 1u) != 0) {
      next.copy_from(P - 1, pop, parents.back());  // odd population size
    }

    // --- random mutation -------------------------------------------------
    for (std::size_t m = 0; m < cfg_.mutants_per_generation; ++m) {
      const std::size_t victim = rng.index(P);
      mutation_.apply(next.chrom[victim], rng);
      next.dirty[victim] = 1;
    }

    // --- local improvement (re-balancing heuristic) ----------------------
    // Always serial: improve() consumes the evolution's RNG stream.
    // A pass that fully prices the chromosome may publish that evaluation
    // through the workspace channel; the engine installs it (the contract
    // guarantees bit-identity with evaluate()) so improved individuals
    // skip the evaluation sweep entirely. A captured evaluation is
    // discarded if a later pass changes the chromosome without supplying.
    if (cfg_.improvement_passes > 0) {
      GaProblem::Workspace* iws = serial_ws.get();
      for (std::size_t i = 0; i < P; ++i) {
        bool changed_any = false;
        bool have = false;
        GaProblem::Evaluation supplied;
        for (std::size_t r = 0; r < cfg_.improvement_passes; ++r) {
          if (iws != nullptr) iws->has_improve_evaluation = false;
          const bool changed =
              problem.improve(next.chrom[i], rng, iws);
          changed_any |= changed;
          if (iws != nullptr && iws->has_improve_evaluation) {
            have = true;
            supplied = iws->improve_evaluation;
          } else if (changed) {
            have = false;
          }
        }
        if (have) {
          next.fitness[i] = supplied.fitness;
          next.objective[i] = supplied.objective;
          next.dirty[i] = 0;
        } else if (changed_any) {
          next.dirty[i] = 1;
        }
      }
    }

    // --- elitism ----------------------------------------------------------
    if (cfg_.elitism && !result.best.empty()) {
      // Replace the first slot with the incumbent best; cheap and keeps
      // the population size fixed. Its evaluation is already cached.
      next.chrom[0].assign(result.best.begin(), result.best.end());
      next.fitness[0] = result.best_fitness;
      next.objective[0] = result.best_objective;
      next.dirty[0] = 0;
    }

    std::swap(pop, next);
    evaluate_all();
    ++result.generations;
    if (result.best_objective < best_before) {
      stall = 0;
    } else {
      ++stall;
    }
    if (cfg_.record_history) {
      result.objective_history.push_back(result.best_objective);
    }
    record_stats(result.generations);
  }
  if (final_population != nullptr) {
    // Every slot is clean here (evaluate_all is the last act of each
    // generation), so the export carries a full evaluation cache.
    final_population->eval.resize(P);
    final_population->cached.assign(P, 1);
    for (std::size_t i = 0; i < P; ++i) {
      final_population->eval[i] = {pop.fitness[i], pop.objective[i]};
    }
    final_population->chrom = std::move(pop.chrom);
  }
  return result;
}

}  // namespace gasched::ga
