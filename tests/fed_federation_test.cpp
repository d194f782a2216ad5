// fed::Federation: topology parsing, spillover conservation (no task
// lost or duplicated across migrations), and determinism — serial and
// thread-pool replication runs must produce bit-identical results.

#include <gtest/gtest.h>

#include <cmath>
#include <string>

#include "exp/config_scenario.hpp"
#include "exp/runner.hpp"
#include "fed/federation.hpp"
#include "fed/topology.hpp"
#include "util/config.hpp"

namespace gasched::fed {
namespace {

// --- Topology ----------------------------------------------------------

TEST(TopologyTest, FullMeshLinksEveryOrderedPair) {
  const Topology t = Topology::full_mesh(4);
  EXPECT_EQ(t.size(), 4u);
  EXPECT_EQ(t.link_count(), 12u);
  for (std::size_t i = 0; i < 4; ++i) {
    EXPECT_FALSE(t.connected(i, i));
    EXPECT_EQ(t.neighbors(i).size(), 3u);
  }
}

TEST(TopologyTest, StarRoutesThroughHub) {
  const Topology t = Topology::star(5, /*hub=*/2);
  EXPECT_EQ(t.link_count(), 8u);  // 4 spokes × 2 directions
  EXPECT_EQ(t.neighbors(2).size(), 4u);
  EXPECT_TRUE(t.connected(0, 2));
  EXPECT_TRUE(t.connected(2, 0));
  EXPECT_FALSE(t.connected(0, 1));
  EXPECT_THROW(Topology::star(3, 7), std::invalid_argument);
}

TEST(TopologyTest, RingLinksAdjacentOnly) {
  const Topology t = Topology::ring(4);
  EXPECT_EQ(t.link_count(), 8u);
  EXPECT_TRUE(t.connected(0, 3));  // wrap-around
  EXPECT_TRUE(t.connected(3, 0));
  EXPECT_FALSE(t.connected(0, 2));
  EXPECT_EQ(t.neighbors(1), (std::vector<std::size_t>{0, 2}));
}

TEST(TopologyTest, TransferTimeIsLatencyPlusSizeOverBandwidth) {
  Topology t(2);
  t.add_link(0, 1, LinkParams{0.5, 1000.0});
  EXPECT_DOUBLE_EQ(t.transfer_time(0, 1, 2000.0), 0.5 + 2.0);
  EXPECT_THROW(t.transfer_time(1, 0, 1.0), std::invalid_argument);
}

TEST(TopologyTest, RejectsBadLinks) {
  Topology t(3);
  EXPECT_THROW(t.add_link(0, 0, {}), std::invalid_argument);
  EXPECT_THROW(t.add_link(0, 9, {}), std::invalid_argument);
  EXPECT_THROW(t.add_link(0, 1, LinkParams{0.0, 1.0}),
               std::invalid_argument);
  EXPECT_THROW(t.add_link(0, 1, LinkParams{1.0, -5.0}),
               std::invalid_argument);
}

// --- INI parsing -------------------------------------------------------

constexpr const char* kBaseIni = R"(
[federation]
clusters = edge, core, burst
topology = full_mesh
router = round_robin
migration = threshold
migration_threshold = 8
migration_chunk = 8
seed = 7
replications = 2
latency = 0.25
bandwidth = 2e4

[workload]
dist = uniform
param_a = 10
param_b = 100
count = 240

[scheduler]
batch_size = 16

[cluster.edge]
processors = 4
scheduler = MM
weight = 2

[cluster.core]
processors = 6
rate_lo = 50
rate_hi = 120
scheduler = MM

[cluster.burst]
processors = 4
scheduler = MM
)";

TEST(FederationConfigTest, ParsesClustersTopologyAndPolicies) {
  const auto cfg =
      federation_from_config(util::Config::parse(kBaseIni));
  ASSERT_EQ(cfg.clusters.size(), 3u);
  EXPECT_EQ(cfg.clusters[0].name, "edge");
  EXPECT_EQ(cfg.clusters[0].cluster.num_processors, 4u);
  EXPECT_DOUBLE_EQ(cfg.clusters[0].weight, 2.0);
  EXPECT_EQ(cfg.clusters[1].cluster.num_processors, 6u);
  EXPECT_DOUBLE_EQ(cfg.clusters[1].cluster.rate_lo, 50.0);
  EXPECT_EQ(cfg.clusters[2].scheduler, "MM");
  EXPECT_EQ(cfg.topology.size(), 3u);
  EXPECT_EQ(cfg.topology.link_count(), 6u);
  ASSERT_NE(cfg.topology.link(0, 1), nullptr);
  EXPECT_DOUBLE_EQ(cfg.topology.link(0, 1)->latency, 0.25);
  EXPECT_DOUBLE_EQ(cfg.topology.link(0, 1)->bandwidth, 2e4);
  EXPECT_EQ(cfg.router, RouterKind::kRoundRobin);
  EXPECT_EQ(cfg.migration, MigrationKind::kThreshold);
  EXPECT_EQ(cfg.migration_threshold, 8u);
  EXPECT_EQ(cfg.workload.count, 240u);
  EXPECT_EQ(cfg.workload.dist, "uniform");
  EXPECT_EQ(cfg.scheduler_params.get_size("batch_size", 0), 16u);
}

TEST(FederationConfigTest, LinkSectionsOverrideAndDefineCustomTopology) {
  const std::string ini = std::string(kBaseIni) +
                          "\n[link.edge.core]\nlatency = 1.5\n";
  const auto cfg = federation_from_config(util::Config::parse(ini));
  ASSERT_NE(cfg.topology.link(0, 1), nullptr);
  EXPECT_DOUBLE_EQ(cfg.topology.link(0, 1)->latency, 1.5);
  // Unmentioned key keeps the federation default.
  EXPECT_DOUBLE_EQ(cfg.topology.link(0, 1)->bandwidth, 2e4);
  // Other links untouched.
  EXPECT_DOUBLE_EQ(cfg.topology.link(1, 0)->latency, 0.25);

  // A custom topology has only the [link.*] edges.
  std::string custom(kBaseIni);
  const auto pos = custom.find("topology = full_mesh");
  custom.replace(pos, std::string("topology = full_mesh").size(),
                 "topology = custom");
  custom += "\n[link.edge.core]\nlatency = 0.1\n[link.core.edge]\n"
            "bandwidth = 1e3\n";
  const auto ccfg = federation_from_config(util::Config::parse(custom));
  EXPECT_EQ(ccfg.topology.link_count(), 2u);
  EXPECT_TRUE(ccfg.topology.connected(0, 1));
  EXPECT_TRUE(ccfg.topology.connected(1, 0));
  EXPECT_FALSE(ccfg.topology.connected(0, 2));
}

TEST(FederationConfigTest, StarHubByName) {
  std::string ini(kBaseIni);
  const auto pos = ini.find("topology = full_mesh");
  ini.replace(pos, std::string("topology = full_mesh").size(),
              "topology = star\nhub = core");
  const auto cfg = federation_from_config(util::Config::parse(ini));
  EXPECT_EQ(cfg.topology.neighbors(1).size(), 2u);  // core is the hub
  EXPECT_FALSE(cfg.topology.connected(0, 2));
}

TEST(FederationConfigTest, RejectsUnknownNames) {
  EXPECT_THROW(federation_from_config(util::Config::parse("[federation]\n")),
               std::runtime_error);
  auto bad = [&](const std::string& find, const std::string& replace) {
    std::string ini(kBaseIni);
    ini.replace(ini.find(find), find.size(), replace);
    return util::Config::parse(ini);
  };
  EXPECT_THROW(
      federation_from_config(bad("router = round_robin", "router = zigzag")),
      std::runtime_error);
  EXPECT_THROW(federation_from_config(
                   bad("migration = threshold", "migration = telepathy")),
               std::runtime_error);
  EXPECT_THROW(federation_from_config(
                   bad("topology = full_mesh", "topology = torus")),
               std::runtime_error);
  EXPECT_THROW(federation_from_config(
                   bad("topology = full_mesh", "topology = star\nhub = nope")),
               std::runtime_error);
}

TEST(FederationConfigTest, NegativeCountsThrowNamingTheKey) {
  // {line of kBaseIni, its replacement, the key the error must name}
  const std::string cases[][3] = {
      {"replications = 2", "replications = -2", "federation.replications"},
      {"seed = 7", "seed = 7\nmax_event_factor = -1",
       "federation.max_event_factor"},
      {"migration_threshold = 8", "migration_threshold = -8",
       "federation.migration_threshold"},
      {"migration_chunk = 8", "migration_chunk = -8",
       "federation.migration_chunk"},
      {"processors = 6", "processors = -6", "cluster.core.processors"},
      {"count = 240", "count = -240", "workload.count"}};
  for (const auto& [find, replace, key] : cases) {
    std::string ini(kBaseIni);
    ini.replace(ini.find(find), find.size(), replace);
    try {
      federation_from_config(util::Config::parse(ini));
      FAIL() << replace << " was accepted";
    } catch (const std::runtime_error& e) {
      const std::string msg = e.what();
      EXPECT_NE(msg.find(key), std::string::npos) << msg;
    }
  }
}

TEST(FederationConfigTest, SeedIsAnUnsigned64BitCount) {
  const auto with_seed = [](const std::string& line) {
    std::string ini(kBaseIni);
    ini.replace(ini.find("seed = 7"), 8, line);
    return federation_from_config(util::Config::parse(ini));
  };
  EXPECT_EQ(with_seed("seed = 18446744073709551615").seed,
            18446744073709551615u);
  try {
    with_seed("seed = -1");
    FAIL() << "federation.seed = -1 was accepted";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("federation.seed"),
              std::string::npos)
        << e.what();
  }
}

TEST(FederationConfigTest, EmptyClusterNameThrowsNamingTheKey) {
  std::string ini(kBaseIni);
  const std::string find = "clusters = edge, core, burst";
  ini.replace(ini.find(find), find.size(), "clusters = edge, , core, burst");
  try {
    federation_from_config(util::Config::parse(ini));
    FAIL() << "an empty cluster name was accepted";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("federation.clusters"),
              std::string::npos)
        << e.what();
  }
}

TEST(FederationConfigTest, NonIntegerCountsThrowNamingTheKey) {
  // {line of kBaseIni, its replacement, the key the error must name}
  const std::string cases[][3] = {
      {"replications = 2", "replications = 2.5", "federation.replications"},
      {"migration_chunk = 8", "migration_chunk = eight",
       "federation.migration_chunk"},
      {"processors = 6", "processors = 6.0", "cluster.core.processors"},
      {"count = 240", "count = 240 tasks", "workload.count"}};
  for (const auto& [find, replace, key] : cases) {
    std::string ini(kBaseIni);
    ini.replace(ini.find(find), find.size(), replace);
    try {
      federation_from_config(util::Config::parse(ini));
      FAIL() << replace << " was accepted";
    } catch (const std::runtime_error& e) {
      const std::string msg = e.what();
      EXPECT_NE(msg.find(key), std::string::npos) << msg;
    }
  }
}

TEST(FederationConfigTest, ZeroCountsThrowNamingTheKey) {
  // Each used to parse: zero replications printed NaN means, zero tasks
  // an all-zero table, and zero processors failed only at run time.
  const std::string cases[][3] = {
      {"replications = 2", "replications = 0", "federation.replications"},
      {"processors = 6", "processors = 0", "cluster.core.processors"},
      {"count = 240", "count = 0", "workload.count"}};
  for (const auto& [find, replace, key] : cases) {
    std::string ini(kBaseIni);
    ini.replace(ini.find(find), find.size(), replace);
    try {
      federation_from_config(util::Config::parse(ini));
      FAIL() << replace << " was accepted";
    } catch (const std::runtime_error& e) {
      const std::string msg = e.what();
      EXPECT_NE(msg.find("'" + std::string(key) + "'"), std::string::npos)
          << msg;
    }
  }
}

/// kBaseIni with streaming arrivals under the given `arrival` preset.
std::string streaming_ini(const std::string& arrival) {
  std::string ini(kBaseIni);
  const std::string find = "count = 240";
  ini.replace(ini.find(find), find.size(),
              find + "\nall_at_start = false\nmean_interarrival = 0.5\n"
                     "arrival = " + arrival);
  return ini;
}

TEST(FederationConfigTest, UnknownArrivalPresetThrowsListingTheValidNames) {
  // Streaming or not: an unused preset name is still a typo.
  const std::string at_start =
      std::string(kBaseIni) + "\n[workload]\narrival = bogus_preset\n";
  for (const std::string& ini : {streaming_ini("bogus_preset"), at_start}) {
    try {
      federation_from_config(util::Config::parse(ini));
      FAIL() << "arrival = bogus_preset was accepted";
    } catch (const std::runtime_error& e) {
      const std::string msg = e.what();
      EXPECT_NE(msg.find("bogus_preset"), std::string::npos) << msg;
      for (const char* name : {"constant", "diurnal", "flash", "ramp"}) {
        EXPECT_NE(msg.find(name), std::string::npos) << msg;
      }
    }
  }
}

TEST(FederationInputsTest, GlobalWorkloadIsTheScenarioWorkload) {
  // The Federation constructor draws its global stream with
  // exp::replication_streams, the function exp::make_inputs is built on:
  // for the same seed, replication and [workload] section a federation
  // and a scenario schedule the same tasks.
  const std::string ini = streaming_ini("diurnal") +
                          "\n[failures]\nenabled = true\n"
                          "[scenario]\nseed = 7\n";
  const auto fed = federation_from_config(util::Config::parse(ini));
  const exp::Scenario s = exp::scenario_from_config(util::Config::parse(ini));
  ASSERT_EQ(fed.seed, s.seed);
  for (std::size_t rep = 0; rep < 2; ++rep) {
    const workload::Workload global =
        exp::replication_streams(fed.workload, fed.seed, rep).workload;
    const exp::ReplicationInputs in = exp::make_inputs(s, rep);
    ASSERT_EQ(global.tasks.size(), in.workload.tasks.size());
    for (std::size_t i = 0; i < global.tasks.size(); ++i) {
      EXPECT_EQ(global.tasks[i].size_mflops, in.workload.tasks[i].size_mflops);
      EXPECT_EQ(global.tasks[i].arrival_time,
                in.workload.tasks[i].arrival_time);
    }
  }
}

// --- runs: conservation, migration policies, determinism ---------------

FederationConfig base_config() {
  return federation_from_config(util::Config::parse(kBaseIni));
}

void expect_conserved(const FederationResult& r, std::size_t total) {
  EXPECT_EQ(r.tasks_completed, total);
  std::size_t routed = 0;
  for (const ClusterResult& c : r.clusters) {
    // Per-cluster flow balance: everything a cluster completed either
    // was routed to it or migrated in, minus what it pushed away.
    EXPECT_EQ(c.sim.tasks_completed,
              c.tasks_routed + c.migrated_in - c.migrated_out)
        << "cluster " << c.name;
    routed += c.tasks_routed;
  }
  EXPECT_EQ(routed, total);
}

TEST(FederationRunTest, ThresholdMigrationConservesTasks) {
  const auto cfg = base_config();
  const FederationResult r = run_federation(cfg, 0);
  expect_conserved(r, cfg.workload.count);
  EXPECT_GT(r.migrations, 0u);
  EXPECT_GT(r.link_busy_seconds, 0.0);
  EXPECT_GT(r.makespan, 0.0);
}

TEST(FederationRunTest, StealMigrationConservesTasks) {
  auto cfg = base_config();
  cfg.migration = MigrationKind::kSteal;
  cfg.router = RouterKind::kWeighted;
  cfg.clusters[0].weight = 20.0;  // overload edge; core/burst will steal
  cfg.clusters[1].cluster.rate_lo = 80.0;
  cfg.clusters[1].cluster.rate_hi = 160.0;
  const FederationResult r = run_federation(cfg, 0);
  expect_conserved(r, cfg.workload.count);
  EXPECT_GT(r.migrations, 0u);
  EXPECT_GT(r.clusters[0].migrated_out, 0u);
}

TEST(FederationRunTest, BroadcastMigrationConservesTasks) {
  auto cfg = base_config();
  cfg.migration = MigrationKind::kBroadcast;
  cfg.router = RouterKind::kWeighted;
  cfg.clusters[0].weight = 10.0;
  const FederationResult r = run_federation(cfg, 0);
  expect_conserved(r, cfg.workload.count);
  EXPECT_GT(r.migrations, 0u);
}

TEST(FederationRunTest, IsolatedClustersNeverMigrate) {
  auto cfg = base_config();
  cfg.topology = Topology(3);  // custom topology with zero links
  const FederationResult r = run_federation(cfg, 0);
  expect_conserved(r, cfg.workload.count);
  EXPECT_EQ(r.migrations, 0u);
  EXPECT_DOUBLE_EQ(r.link_busy_seconds, 0.0);
}

TEST(FederationRunTest, HashRouterSplitsDeterministically) {
  auto cfg = base_config();
  cfg.router = RouterKind::kHash;
  cfg.migration = MigrationKind::kNone;
  cfg.topology = Topology::full_mesh(3);
  const FederationResult a = run_federation(cfg, 0);
  const FederationResult b = run_federation(cfg, 0);
  expect_conserved(a, cfg.workload.count);
  for (std::size_t k = 0; k < a.clusters.size(); ++k) {
    EXPECT_GT(a.clusters[k].tasks_routed, 0u);
    EXPECT_EQ(a.clusters[k].tasks_routed, b.clusters[k].tasks_routed);
  }
  EXPECT_DOUBLE_EQ(a.makespan, b.makespan);
}

TEST(FederationRunTest, SerialAndParallelReplicationsBitIdentical) {
  const auto cfg = base_config();
  const auto serial = run_federation_replications(cfg, /*parallel=*/false);
  const auto pooled = run_federation_replications(cfg, /*parallel=*/true);
  ASSERT_EQ(serial.size(), cfg.replications);
  ASSERT_EQ(pooled.size(), cfg.replications);
  for (std::size_t rep = 0; rep < serial.size(); ++rep) {
    EXPECT_DOUBLE_EQ(serial[rep].makespan, pooled[rep].makespan);
    EXPECT_DOUBLE_EQ(serial[rep].mean_response_time,
                     pooled[rep].mean_response_time);
    EXPECT_EQ(serial[rep].migrations, pooled[rep].migrations);
    EXPECT_DOUBLE_EQ(serial[rep].link_busy_seconds,
                     pooled[rep].link_busy_seconds);
    ASSERT_EQ(serial[rep].clusters.size(), pooled[rep].clusters.size());
    for (std::size_t k = 0; k < serial[rep].clusters.size(); ++k) {
      EXPECT_DOUBLE_EQ(serial[rep].clusters[k].sim.makespan,
                       pooled[rep].clusters[k].sim.makespan);
      EXPECT_EQ(serial[rep].clusters[k].migrated_in,
                pooled[rep].clusters[k].migrated_in);
    }
  }
}

TEST(FederationRunTest, FlattenedResultConcatenatesProcessors) {
  const auto cfg = base_config();
  const FederationResult r = run_federation(cfg, 1);
  const sim::SimulationResult flat = r.as_simulation_result();
  EXPECT_EQ(flat.per_proc.size(), 4u + 6u + 4u);
  EXPECT_DOUBLE_EQ(flat.makespan, r.makespan);
  EXPECT_EQ(flat.tasks_completed, r.tasks_completed);
  double busy = 0.0;
  for (const ClusterResult& c : r.clusters) busy += c.sim.total_busy_time();
  EXPECT_DOUBLE_EQ(flat.total_busy_time(), busy);
}

TEST(FederationRunTest, PerClusterFailuresStillConserve) {
  auto cfg = base_config();
  sim::FailureConfig fc;
  fc.mean_uptime = 300.0;
  fc.mean_downtime = 50.0;
  fc.horizon = 1e6;
  cfg.clusters[1].failures = fc;
  const FederationResult r = run_federation(cfg, 0);
  expect_conserved(r, cfg.workload.count);
}

TEST(FederationRunTest, ArrivalPresetShapesTheGlobalStream) {
  // At streaming arrivals the preset reaches the run: a diurnal λ(t)
  // moves arrival instants, so the federation finishes differently.
  const auto constant =
      federation_from_config(util::Config::parse(streaming_ini("constant")));
  const auto diurnal =
      federation_from_config(util::Config::parse(streaming_ini("diurnal")));
  const FederationResult a = run_federation(constant, 0);
  const FederationResult b = run_federation(diurnal, 0);
  expect_conserved(a, constant.workload.count);
  expect_conserved(b, diurnal.workload.count);
  EXPECT_NE(a.makespan, b.makespan);
  EXPECT_NE(a.mean_response_time, b.mean_response_time);
}

TEST(FederationRunTest, MismatchedTopologySizeThrows) {
  auto cfg = base_config();
  cfg.topology = Topology::full_mesh(2);
  EXPECT_THROW(Federation(cfg, 0), std::invalid_argument);
}

}  // namespace
}  // namespace gasched::fed
