#include "core/genetic_scheduler.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <limits>

#include "ga/island.hpp"

namespace gasched::core {

namespace {

/// Smoothing factor ν for the idle-time sequence s_p (§3.7).
constexpr double kBatchNu = 0.5;

}  // namespace

GeneticBatchScheduler::GeneticBatchScheduler(GeneticSchedulerConfig cfg,
                                             std::string display_name)
    : cfg_(std::move(cfg)),
      name_(std::move(display_name)),
      idle_smoother_(kBatchNu) {}

std::size_t GeneticBatchScheduler::next_batch_size(
    const sim::SystemView& view) {
  if (!cfg_.dynamic_batch) return cfg_.fixed_batch;
  // s_p: estimated time until the first processor becomes idle (§3.7).
  double s = std::numeric_limits<double>::infinity();
  for (const auto& p : view.procs) s = std::min(s, p.drain_time());
  if (!std::isfinite(s)) s = 0.0;
  const double gamma = idle_smoother_.observe(s);
  const auto h = static_cast<std::size_t>(std::floor(std::sqrt(gamma + 1.0)));
  const std::size_t lo =
      cfg_.min_batch > 0 ? cfg_.min_batch : std::max<std::size_t>(view.size(), 1);
  return std::clamp(h, lo, cfg_.max_batch);
}

sim::BatchAssignment GeneticBatchScheduler::invoke(
    const sim::SystemView& view, std::deque<workload::Task>& queue,
    util::Rng& rng) {
  const std::size_t M = view.size();
  sim::BatchAssignment assignment = sim::BatchAssignment::empty(M);
  if (queue.empty() || M == 0) return assignment;

  const std::size_t batch =
      std::min<std::size_t>(next_batch_size(view), queue.size());

  // Consume the batch from the front of the unscheduled queue (FCFS).
  std::vector<workload::Task> tasks;
  tasks.reserve(batch);
  std::vector<double> sizes;
  sizes.reserve(batch);
  for (std::size_t i = 0; i < batch; ++i) {
    tasks.push_back(queue.front());
    sizes.push_back(queue.front().size_mflops);
    queue.pop_front();
  }

  const ScheduleCodec codec(batch, M);
  const ScheduleEvaluator eval(std::move(sizes), view,
                               cfg_.use_comm_estimates);
  ScheduleProblem problem(codec, eval, cfg_.rebalance_probes);

  ga::GaConfig ga_cfg = cfg_.ga;
  if (!cfg_.rebalance) ga_cfg.improvement_passes = 0;

  static const ga::RouletteSelection kSelection;
  static const ga::CycleCrossover kCrossover;
  static const ga::SwapMutation kMutation;
  const ga::GaEngine engine(ga_cfg, kSelection, kCrossover, kMutation);

  auto initial = initial_population(codec, eval, ga_cfg.population,
                                    cfg_.random_init_fraction, rng);
  ga::StopPredicate stop;
  if (cfg_.max_wall_seconds > 0.0) {
    const auto deadline = std::chrono::steady_clock::now() +
                          std::chrono::duration<double>(cfg_.max_wall_seconds);
    stop = [deadline](std::size_t, double) {
      return std::chrono::steady_clock::now() >= deadline;
    };
  }
  ga::Chromosome best;
  if (cfg_.islands > 1) {
    ga::IslandConfig island_cfg;
    island_cfg.ga = ga_cfg;
    island_cfg.islands = cfg_.islands;
    island_cfg.migration_interval = cfg_.migration_interval;
    island_cfg.migrants = cfg_.migrants;
    // Seed every island's worth of individuals up front so islands start
    // decorrelated.
    initial = initial_population(codec, eval,
                                 ga_cfg.population * cfg_.islands,
                                 cfg_.random_init_fraction, rng);
    const ga::IslandResult result =
        ga::run_island_ga(problem, island_cfg, kSelection, kCrossover,
                          kMutation, std::move(initial), rng, stop);
    best = result.best.best;
  } else {
    const ga::GaResult result =
        engine.run(problem, std::move(initial), rng, stop);
    best = result.best;
  }

  codec.decode_into(best, decode_scratch_);
  for (std::size_t j = 0; j < M; ++j) {
    for (const std::size_t slot : decode_scratch_.queue(j)) {
      assignment.per_proc[j].push_back(tasks[slot].id);
    }
  }
  return assignment;
}

std::unique_ptr<GeneticBatchScheduler> make_pn_scheduler(
    GeneticSchedulerConfig cfg) {
  cfg.use_comm_estimates = true;
  cfg.rebalance = true;
  return std::make_unique<GeneticBatchScheduler>(cfg, "PN");
}

std::unique_ptr<GeneticBatchScheduler> make_pn_island_scheduler(
    std::size_t islands, GeneticSchedulerConfig cfg) {
  cfg.use_comm_estimates = true;
  cfg.rebalance = true;
  cfg.islands = islands;
  return std::make_unique<GeneticBatchScheduler>(cfg, "PNI");
}

std::unique_ptr<GeneticBatchScheduler> make_zo_scheduler(
    std::size_t fixed_batch) {
  GeneticSchedulerConfig cfg;
  cfg.use_comm_estimates = false;
  cfg.rebalance = false;
  cfg.dynamic_batch = false;
  cfg.fixed_batch = fixed_batch;
  return std::make_unique<GeneticBatchScheduler>(cfg, "ZO");
}

}  // namespace gasched::core
