// Ablation: factorial decomposition of the PN scheduler. PN differs from
// the ZO baseline in exactly three ingredients — (C) communication-cost
// prediction in the fitness function, (R) the re-balancing heuristic,
// (B) dynamic batch sizing — but the paper only ever evaluates the full
// bundle. This bench runs all 2³ combinations so each ingredient's
// marginal contribution is visible. 000 = ZO, 111 = PN.

#include <iostream>
#include <memory>

#include "bench_common.hpp"
#include "core/genetic_scheduler.hpp"
#include "exp/runner.hpp"

using namespace gasched;

namespace {

/// A PN/ZO hybrid with the given feature mask, for replication-style
/// execution outside the scheduler registry.
std::unique_ptr<sim::SchedulingPolicy> make_variant(bool comm, bool rebalance,
                                                    bool dynamic,
                                                    const bench::BenchParams& p,
                                                    std::string name) {
  core::GeneticSchedulerConfig cfg;
  cfg.ga.max_generations = p.generations;
  cfg.ga.population = p.population;
  cfg.use_comm_estimates = comm;
  cfg.rebalance = rebalance;
  cfg.ga.improvement_passes = rebalance ? 1 : 0;
  cfg.dynamic_batch = dynamic;
  cfg.fixed_batch = p.batch;
  cfg.max_batch = p.batch;
  return std::make_unique<core::GeneticBatchScheduler>(cfg, std::move(name));
}

}  // namespace

int main(int argc, char** argv) {
  const auto p = bench::parse_params(argc, argv, /*tasks=*/600, /*reps=*/4,
                                     /*generations=*/80);
  bench::print_banner(
      "Ablation", "PN component decomposition (C=comm, R=rebalance, B=batch)",
      "design-choice study (not in paper): the paper bundles three changes "
      "over ZO; hypothesis per its SS5: comm prediction carries the "
      "efficiency gain, re-balancing the makespan gain, dynamic batch "
      "removes a tuning knob at little cost",
      p);

  exp::WorkloadSpec spec;
  spec.dist = "normal";
  spec.param_a = 1000.0;
  spec.param_b = 9e5;

  exp::Sweep sweep =
      bench::make_sweep("pn-components", p, spec, /*mean_comm=*/10.0);
  std::vector<exp::Sweep::Value> variants;
  for (int mask = 0; mask < 8; ++mask) {
    const bool comm = (mask & 4) != 0;
    const bool rebalance = (mask & 2) != 0;
    const bool dynamic = (mask & 1) != 0;
    const std::string name = std::string(comm ? "C" : "-") +
                             (rebalance ? "R" : "-") + (dynamic ? "B" : "-");
    variants.push_back({name, {}});
  }
  sweep.axis("variant", std::move(variants));
  // Custom runner: the hybrid policies live outside the registry, so the
  // replications run a factory instead of a registered name (workload
  // and cluster depend only on (seed, rep), identical across variants).
  sweep.runner([&](const exp::SweepCell& cell, bool parallel) {
    const auto mask = static_cast<int>(cell.index);
    const bool comm = (mask & 4) != 0;
    const bool rebalance = (mask & 2) != 0;
    const bool dynamic = (mask & 1) != 0;
    const auto runs = exp::run_replications(
        cell.scenario,
        [&] {
          return make_variant(comm, rebalance, dynamic, p,
                              cell.coord("variant"));
        },
        parallel);
    exp::CellOutcome out;
    out.summary = metrics::aggregate(cell.coord("variant"), runs);
    return out;
  });

  bench::run_sweep(sweep, p);
  std::cout << "\nRow '---' is the ZO baseline; row 'CRB' is full PN.\n";
  return 0;
}
