// Run a federated multi-cluster scenario from an INI file — the fed::
// counterpart of run_scenario. The [federation]/[cluster.*]/[link.*]
// sections describe N clusters, their link topology, the arrival router
// and the migration policy (docs/federation.md documents every key);
// this binary runs the configured replications and prints per-cluster
// routing/migration accounting plus the federation-level summary.
//
//   ./federation_demo configs/federation.ini
//   ./federation_demo configs/federation.ini --serial

#include <iostream>

#include "fed/federation.hpp"
#include "util/cli.hpp"
#include "util/config.hpp"
#include "util/table.hpp"

using namespace gasched;

int main(int argc, char** argv) {
  const util::Cli cli(argc, argv, {"serial"});
  if (cli.positional().empty()) {
    std::cerr << "usage: " << cli.program()
              << " <federation.ini> [--serial]\n"
                 "example config: configs/federation.ini\n";
    return 2;
  }

  try {
    const util::Config cfg = util::Config::load(cli.positional()[0]);
    const fed::FederationConfig fc = fed::federation_from_config(cfg);

    std::cout << "Federation '" << fc.name << "': " << fc.clusters.size()
              << " clusters, " << fc.topology.link_count() << " links, "
              << fc.workload.count << " " << fc.workload.dist << " tasks, "
              << fc.replications << " replications\n\n";

    const auto runs = fed::run_federation_replications(
        fc, /*parallel=*/!cli.get_bool("serial", false));

    // Per-cluster accounting, averaged over replications. Conservation
    // (completed == routed + migrated_in − migrated_out) holds per rep.
    util::Table per_cluster({"cluster", "routed", "migr in", "migr out",
                             "completed", "makespan"});
    for (std::size_t k = 0; k < fc.clusters.size(); ++k) {
      double routed = 0, in = 0, out = 0, completed = 0, makespan = 0;
      for (const fed::FederationResult& r : runs) {
        const fed::ClusterResult& c = r.clusters[k];
        routed += static_cast<double>(c.tasks_routed);
        in += static_cast<double>(c.migrated_in);
        out += static_cast<double>(c.migrated_out);
        completed += static_cast<double>(c.sim.tasks_completed);
        makespan += c.sim.makespan;
      }
      const double n = static_cast<double>(runs.size());
      per_cluster.add_row(fc.clusters[k].name,
                          {routed / n, in / n, out / n, completed / n,
                           makespan / n});
    }
    per_cluster.print(std::cout);

    double makespan = 0, response = 0, migrations = 0, mflops = 0,
           link_busy = 0;
    for (const fed::FederationResult& r : runs) {
      makespan += r.makespan;
      response += r.mean_response_time;
      migrations += static_cast<double>(r.migrations);
      mflops += r.migrated_mflops;
      link_busy += r.link_busy_seconds;
    }
    const double n = static_cast<double>(runs.size());
    std::cout << "\nfederation means over " << runs.size()
              << " replications:\n"
              << "  makespan            " << util::fmt(makespan / n) << "\n"
              << "  mean response time  " << util::fmt(response / n) << "\n"
              << "  migrations          " << util::fmt(migrations / n) << "\n"
              << "  migrated MFLOPs     " << util::fmt(mflops / n) << "\n"
              << "  link busy seconds   " << util::fmt(link_busy / n) << "\n";
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 1;
  }
  return 0;
}
