// Extension: federated multi-cluster scheduling (fed::Federation).
//
// Three clusters with their own schedulers share one arrival stream split
// by a capacity-weighted router that deliberately overloads the first
// cluster; the sweep compares spillover/migration policies (none /
// threshold / steal / broadcast) across link topologies (full mesh /
// star). Expectation: every policy completes every task (conservation is
// a hard invariant — the bench fails otherwise), and migration relieves
// the overloaded cluster, cutting federation makespan versus `none`.

#include <algorithm>
#include <cstdlib>
#include <iostream>
#include <stdexcept>

#include "bench_common.hpp"
#include "fed/federation.hpp"

using namespace gasched;

namespace {

fed::FederationConfig make_fed(const bench::BenchParams& p,
                               const std::string& cluster_scheduler,
                               const std::string& migration,
                               const std::string& topology) {
  fed::FederationConfig cfg;
  cfg.name = "ext_federation";
  const std::size_t procs_per_cluster =
      std::max<std::size_t>(4, p.procs / 3);
  const char* names[] = {"edge", "core", "burst"};
  for (std::size_t k = 0; k < 3; ++k) {
    fed::ClusterSpec spec;
    spec.name = names[k];
    spec.cluster.num_processors = procs_per_cluster;
    spec.cluster.comm.mean_cost = 5.0;
    // Default MM: its batches leave a visible unscheduled queue between
    // invocations — the spillover signal the migration policies act on.
    // --cluster-scheduler RR switches to an O(1)-per-task policy for
    // cloud-scale runs (≥1M tasks) where the event core is the subject.
    spec.scheduler = cluster_scheduler;
    spec.weight = k == 0 ? 4.0 : 1.0;  // overload `edge`
    cfg.clusters.push_back(std::move(spec));
  }
  cfg.router = fed::RouterKind::kWeighted;
  if (migration == "none") {
    cfg.migration = fed::MigrationKind::kNone;
  } else if (migration == "threshold") {
    cfg.migration = fed::MigrationKind::kThreshold;
  } else if (migration == "steal") {
    cfg.migration = fed::MigrationKind::kSteal;
  } else {
    cfg.migration = fed::MigrationKind::kBroadcast;
  }
  cfg.migration_threshold = 16;
  cfg.migration_chunk = 16;
  // star(hub=edge) vs full_mesh: with three clusters a ring *is* a full
  // mesh, so the star (no core↔burst link — relief traffic must transit
  // the overloaded hub) is the topology that actually differs.
  cfg.topology = topology == "star" ? fed::Topology::star(3, 0)
                                    : fed::Topology::full_mesh(3);
  cfg.workload.dist = "uniform";
  cfg.workload.param_a = 10.0;
  cfg.workload.param_b = 1000.0;
  cfg.workload.count = p.tasks;
  cfg.scheduler_params = bench::scheduler_params(p);
  cfg.seed = p.seed;
  cfg.replications = p.reps;
  return cfg;
}

}  // namespace

int main(int argc, char** argv) {
  const auto p = bench::parse_params(argc, argv, /*tasks=*/600, /*reps=*/2,
                                     /*generations=*/100,
                                     {"cluster-scheduler"});
  const util::Cli cli(argc, argv);
  const std::string cluster_scheduler = cli.get("cluster-scheduler", "MM");
  bench::print_banner(
      "Extension", "federated multi-cluster scheduling",
      "hypothesis: task conservation holds under every migration policy, "
      "and spillover migration relieves the overloaded cluster (lower "
      "federation makespan than isolated `none`)",
      p);

  exp::WorkloadSpec spec;
  spec.dist = "uniform";
  spec.param_a = 10.0;
  spec.param_b = 1000.0;

  exp::Sweep sweep = bench::make_sweep("federation", p, spec,
                                       /*mean_comm=*/5.0);
  sweep.axis("topology", {exp::Sweep::Value{"full_mesh", {}},
                          exp::Sweep::Value{"star", {}}});
  sweep.axis("migration", {exp::Sweep::Value{"none", {}},
                           exp::Sweep::Value{"threshold", {}},
                           exp::Sweep::Value{"steal", {}},
                           exp::Sweep::Value{"broadcast", {}}});
  sweep.extra_columns({"migrations", "link_busy", "edge_completed"});
  sweep.runner([&](const exp::SweepCell& cell, bool parallel) {
    const fed::FederationConfig cfg = make_fed(
        p, cluster_scheduler, cell.coord("migration"), cell.coord("topology"));
    const auto runs = fed::run_federation_replications(cfg, parallel);
    std::vector<sim::SimulationResult> flat;
    double migrations = 0.0, link_busy = 0.0, edge_completed = 0.0;
    for (const fed::FederationResult& r : runs) {
      flat.push_back(r.as_simulation_result());
      migrations += static_cast<double>(r.migrations);
      link_busy += r.link_busy_seconds;
      edge_completed += static_cast<double>(r.clusters[0].sim.tasks_completed);
    }
    const double n = static_cast<double>(runs.size());
    exp::CellOutcome out;
    out.summary = metrics::aggregate(cell.coord("migration"), flat);
    out.extras = {{"migrations", migrations / n},
                  {"link_busy", link_busy / n},
                  {"edge_completed", edge_completed / n}};
    return out;
  });
  const auto result = bench::run_sweep(sweep, p);

  const auto coord = [](const metrics::SweepRow& row,
                        const std::string& axis) -> const std::string& {
    for (const auto& [name, label] : row.coords) {
      if (name == axis) return label;
    }
    throw std::out_of_range("ext_federation: no axis " + axis);
  };

  // Hard invariant: no policy may lose or duplicate a task.
  bool conserved = true;
  for (const auto& row : result.rows) {
    if (row.cell.completed.min < static_cast<double>(p.tasks) ||
        row.cell.completed.max > static_cast<double>(p.tasks)) {
      std::cerr << "ERROR: task conservation violated (topology="
                << coord(row, "topology") << ", migration="
                << coord(row, "migration") << ")\n";
      conserved = false;
    }
  }

  // Comparative summary per topology: makespan of each policy vs `none`.
  util::Table table({"topology/migration", "makespan", "vs none",
                     "migrations", "edge share"});
  for (const std::string topo : {"full_mesh", "star"}) {
    const auto rows = result.where("topology", topo);
    double none_makespan = 0.0;
    for (const auto* row : rows) {
      if (coord(*row, "migration") == "none") {
        none_makespan = row->cell.makespan.mean;
      }
    }
    for (const auto* row : rows) {
      table.add_row(topo + "/" + coord(*row, "migration"),
                    {row->cell.makespan.mean,
                     none_makespan > 0.0
                         ? row->cell.makespan.mean / none_makespan
                         : 0.0,
                     row->extra("migrations"),
                     row->extra("edge_completed") /
                         static_cast<double>(p.tasks)});
    }
  }
  std::cout << "\n";
  table.print(std::cout);

  if (!conserved) return 1;
  std::cout << "shape check: OK — all " << result.rows.size()
            << " cells completed every task\n";
  return 0;
}
