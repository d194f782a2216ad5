#include "core/register.hpp"

#include "core/genetic_scheduler.hpp"
#include "exp/registry.hpp"

namespace gasched::core {

namespace {

/// GA knobs shared by ZO, PN and PNI.
void apply_ga_params(GeneticSchedulerConfig& cfg,
                     const exp::SchedulerParams& p) {
  cfg.ga.max_generations =
      p.get_size("max_generations", exp::kDefaultMaxGenerations);
  cfg.ga.population = p.get_size("population", exp::kDefaultPopulation);
}

/// The paper's PN configuration (also the base of PNI).
GeneticSchedulerConfig pn_config(const exp::SchedulerParams& p) {
  GeneticSchedulerConfig cfg;
  apply_ga_params(cfg, p);
  const std::size_t rebalances =
      p.get_size("rebalances", exp::kDefaultRebalances);
  cfg.ga.improvement_passes = rebalances;
  cfg.rebalance = rebalances > 0;
  cfg.rebalance_probes =
      p.get_size("rebalance_probes", exp::kDefaultRebalanceProbes);
  cfg.dynamic_batch =
      p.get_bool("pn_dynamic_batch", exp::kDefaultPnDynamicBatch);
  const std::size_t batch = p.get_size("batch_size", exp::kDefaultBatchSize);
  cfg.fixed_batch = batch;
  cfg.max_batch = batch;  // cap dynamic H at the batch size
  return cfg;
}

}  // namespace

void register_builtin_schedulers(exp::SchedulerRegistry& registry) {
  using exp::SchedulerParams;
  const unsigned paper = exp::kSchedulerTagPaper;
  const unsigned meta = exp::kSchedulerTagMetaheuristic;

  registry.add({.name = "ZO",
                .summary = "Zomaya & Teh genetic baseline: fixed batch, no "
                           "comm prediction, no re-balance (§4.1)",
                .tags = paper | meta,
                .rank = 3,
                .factory =
                    [](const SchedulerParams& p) {
                      auto zo = make_zo_scheduler(
                          p.get_size("batch_size", exp::kDefaultBatchSize));
                      GeneticSchedulerConfig cfg = zo->config();
                      apply_ga_params(cfg, p);
                      return std::make_unique<GeneticBatchScheduler>(cfg,
                                                                     "ZO");
                    }});
  registry.add({.name = "PN",
                .summary = "the paper's GA: comm prediction, re-balance "
                           "heuristic, dynamic batch sizing (§3)",
                .tags = paper | meta,
                .rank = 4,
                .factory =
                    [](const SchedulerParams& p) {
                      return make_pn_scheduler(pn_config(p));
                    }});
  registry.add({.name = "PNI",
                .summary = "PN evolved with an island-model parallel GA: "
                           "islands × population with ring migration",
                .tags = meta,
                .rank = 16,
                .factory =
                    [](const SchedulerParams& p) {
                      GeneticSchedulerConfig cfg = pn_config(p);
                      cfg.migration_interval = p.get_size(
                          "migration_interval", exp::kDefaultMigrationInterval);
                      return make_pn_island_scheduler(
                          p.get_size("islands", exp::kDefaultIslands), cfg);
                    }});
}

}  // namespace gasched::core
