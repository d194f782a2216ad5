// Tests for scenario construction from config files.

#include "exp/config_scenario.hpp"

#include <gtest/gtest.h>

#include <string>
#include <utility>

#include "exp/registry.hpp"
#include "exp/runner.hpp"

namespace gasched::exp {
namespace {

TEST(ConfigScenario, DefaultsMatchDocumentation) {
  const auto s = scenario_from_config(util::Config::parse(""));
  EXPECT_EQ(s.name, "config");
  EXPECT_EQ(s.seed, 42u);
  EXPECT_EQ(s.replications, 5u);
  EXPECT_EQ(s.cluster.num_processors, 50u);
  EXPECT_DOUBLE_EQ(s.cluster.comm.mean_cost, 20.0);
  EXPECT_EQ(s.workload.dist, "normal");
  EXPECT_TRUE(s.workload.all_at_start);
  EXPECT_FALSE(s.failures.has_value());
}

TEST(ConfigScenario, FullConfigRoundTrips) {
  const auto cfg = util::Config::parse(
      "[scenario]\nname = t\nseed = 9\nreplications = 2\n"
      "[cluster]\nprocessors = 8\nrate_lo = 5\nrate_hi = 50\n"
      "availability = random_walk\n"
      "[comm]\nmean_cost = 3\n"
      "[workload]\ndist = uniform\nparam_a = 10\nparam_b = 100\n"
      "count = 60\nall_at_start = false\nmean_interarrival = 2.5\n"
      "[failures]\nenabled = true\nmean_uptime = 100\n"
      "mean_downtime = 10\nfailing_fraction = 0.25\n");
  const auto s = scenario_from_config(cfg);
  EXPECT_EQ(s.name, "t");
  EXPECT_EQ(s.seed, 9u);
  EXPECT_EQ(s.replications, 2u);
  EXPECT_EQ(s.cluster.num_processors, 8u);
  EXPECT_EQ(s.cluster.availability, sim::AvailabilityKind::kRandomWalk);
  EXPECT_DOUBLE_EQ(s.cluster.comm.mean_cost, 3.0);
  EXPECT_EQ(s.workload.dist, "uniform");
  EXPECT_EQ(s.workload.count, 60u);
  EXPECT_FALSE(s.workload.all_at_start);
  EXPECT_DOUBLE_EQ(s.workload.mean_interarrival, 2.5);
  ASSERT_TRUE(s.failures.has_value());
  EXPECT_DOUBLE_EQ(s.failures->mean_uptime, 100.0);
  EXPECT_DOUBLE_EQ(s.failures->failing_fraction, 0.25);
}

TEST(ConfigScenario, SchedulerParamsCarrySectionVerbatim) {
  const auto cfg = util::Config::parse(
      "[scheduler]\nbatch_size = 77\nmax_generations = 55\n"
      "population = 11\nrebalances = 3\npn_dynamic_batch = false\n"
      "kpb_percent = 35\nsa_cooling = 0.8\n");
  const auto p = scheduler_params_from_config(cfg);
  EXPECT_EQ(p.get_size("batch_size", 200), 77u);
  EXPECT_EQ(p.get_size("max_generations", 1000), 55u);
  EXPECT_EQ(p.get_size("population", 20), 11u);
  EXPECT_EQ(p.get_size("rebalances", 1), 3u);
  EXPECT_FALSE(p.get_bool("pn_dynamic_batch", true));
  EXPECT_DOUBLE_EQ(p.get_double("kpb_percent", 20.0), 35.0);
  // Per-scheduler keys ride along untouched for the factory that wants
  // them — nothing to extend centrally.
  EXPECT_DOUBLE_EQ(p.get_double("sa_cooling", 0.92), 0.8);
}

TEST(ConfigScenario, UnknownEnumsThrow) {
  EXPECT_THROW(scenario_from_config(util::Config::parse(
                   "[cluster]\navailability = quantum\n")),
               std::runtime_error);
  EXPECT_THROW(
      scenario_from_config(util::Config::parse("[workload]\ndist = zipf\n")),
      std::runtime_error);
  // An unknown arrival preset throws whether or not arrivals stream.
  for (const char* streaming : {"true", "false"}) {
    EXPECT_THROW(scenario_from_config(util::Config::parse(
                     std::string("[workload]\narrival = lunar\n") +
                     "all_at_start = " + streaming + "\n")),
                 std::runtime_error)
        << "all_at_start = " << streaming;
  }
}

TEST(ConfigScenario, NegativeCountsThrowNamingTheKey) {
  // Cast straight to std::size_t, -1 used to become a 2^64 − 1 count.
  const std::pair<std::string, std::string> counts[] = {
      {"scenario", "replications"},
      {"cluster", "processors"},
      {"workload", "count"},
      {"bounds", "max_iterations"}};
  for (const auto& [section, key] : counts) {
    const util::Config cfg =
        util::Config::parse("[" + section + "]\n" + key + " = -1\n");
    try {
      scenario_from_config(cfg);
      bounds_from_config(cfg);
      FAIL() << section << "." << key << " = -1 was accepted";
    } catch (const std::runtime_error& e) {
      const std::string msg = e.what();
      EXPECT_NE(msg.find(section + "." + key), std::string::npos) << msg;
    }
  }
}

TEST(ConfigScenario, SeedIsAnUnsigned64BitCount) {
  // -1 used to wrap silently to 2^64 - 1, while 2^64 - 1 itself threw.
  EXPECT_EQ(scenario_from_config(util::Config::parse(
                "[scenario]\nseed = 18446744073709551615\n"))
                .seed,
            18446744073709551615u);
  try {
    scenario_from_config(util::Config::parse("[scenario]\nseed = -1\n"));
    FAIL() << "scenario.seed = -1 was accepted";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("scenario.seed"), std::string::npos)
        << e.what();
  }
}

TEST(ConfigScenario, NonIntegerCountsThrowNamingTheKey) {
  const std::pair<std::string, std::string> counts[] = {
      {"scenario", "replications"},
      {"cluster", "processors"},
      {"workload", "count"},
      {"bounds", "max_iterations"}};
  for (const auto& [section, key] : counts) {
    for (const std::string value : {"2.5", "many"}) {
      const util::Config cfg = util::Config::parse(
          "[" + section + "]\n" + key + " = " + value + "\n");
      try {
        scenario_from_config(cfg);
        bounds_from_config(cfg);
        FAIL() << section << "." << key << " = " << value
               << " was accepted";
      } catch (const std::runtime_error& e) {
        const std::string msg = e.what();
        EXPECT_NE(msg.find(section + "." + key), std::string::npos) << msg;
      }
    }
  }
}

TEST(ConfigScenario, ZeroCountsThrowNamingTheKey) {
  // Zero replications or tasks used to run to exit status 0 with an empty
  // table, and zero processors failed only per cell at run time.
  for (const std::string key :
       {"scenario.replications", "cluster.processors", "workload.count"}) {
    const std::string section = key.substr(0, key.find('.'));
    const std::string name = key.substr(key.find('.') + 1);
    const util::Config cfg =
        util::Config::parse("[" + section + "]\n" + name + " = 0\n");
    try {
      scenario_from_config(cfg);
      FAIL() << key << " = 0 was accepted";
    } catch (const std::runtime_error& e) {
      const std::string msg = e.what();
      EXPECT_NE(msg.find("'" + key + "'"), std::string::npos) << msg;
    }
    // One is the smallest count that runs.
    const util::Config one =
        util::Config::parse("[" + section + "]\n" + name + " = 1\n");
    EXPECT_NO_THROW(scenario_from_config(one)) << key;
  }
}

TEST(ConfigScenario, BoundsMaxIterationsTakesZeroAndPositiveCounts) {
  EXPECT_EQ(bounds_from_config(util::Config::parse("")).max_iterations, 60u);
  EXPECT_EQ(bounds_from_config(
                util::Config::parse("[bounds]\nmax_iterations = 0\n"))
                .max_iterations,
            0u);
  EXPECT_EQ(bounds_from_config(
                util::Config::parse("[bounds]\nmax_iterations = 250\n"))
                .max_iterations,
            250u);
}

TEST(ConfigScenario, UnknownDistErrorListsRegisteredFamilies) {
  try {
    scenario_from_config(util::Config::parse("[workload]\ndist = zipf\n"));
    FAIL() << "expected std::runtime_error";
  } catch (const std::runtime_error& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("zipf"), std::string::npos) << msg;
    EXPECT_NE(msg.find("normal"), std::string::npos) << msg;
    EXPECT_NE(msg.find("pareto"), std::string::npos) << msg;
    EXPECT_NE(msg.find("bimodal"), std::string::npos) << msg;
  }
}

TEST(ConfigScenario, DistNamesAreCaseInsensitive) {
  const auto s = scenario_from_config(
      util::Config::parse("[workload]\ndist = Pareto\n"));
  EXPECT_EQ(s.workload.dist, "pareto");
}

TEST(ConfigScenario, ParsesArrivalAndSmoothingKeys) {
  const auto cfg = util::Config::parse(
      "[scenario]\ncomm_nu = 0.3\nrate_nu = 0.7\n"
      "[workload]\nall_at_start = false\nmean_interarrival = 2.5\n"
      "burstiness = 8\nburst_dwell = 12\n"
      "[scheduler]\nislands = 6\nmigration_interval = 15\n");
  const auto s = scenario_from_config(cfg);
  EXPECT_DOUBLE_EQ(s.comm_nu, 0.3);
  EXPECT_DOUBLE_EQ(s.rate_nu, 0.7);
  EXPECT_FALSE(s.workload.all_at_start);
  EXPECT_DOUBLE_EQ(s.workload.mean_interarrival, 2.5);
  EXPECT_DOUBLE_EQ(s.workload.burstiness, 8.0);
  EXPECT_DOUBLE_EQ(s.workload.burst_dwell, 12.0);
  const auto p = scheduler_params_from_config(cfg);
  EXPECT_EQ(p.get_size("islands", 4), 6u);
  EXPECT_EQ(p.get_size("migration_interval", 25), 15u);
}

TEST(ConfigScenario, SchedulerNamesResolveThroughRegistry) {
  for (const auto& name : extended_schedulers()) {
    EXPECT_EQ(SchedulerRegistry::instance().canonical_name(name), name);
  }
  for (const auto& name : metaheuristic_schedulers()) {
    EXPECT_EQ(SchedulerRegistry::instance().canonical_name(name), name);
  }
  EXPECT_THROW(SchedulerRegistry::instance().canonical_name("XYZ"),
               std::runtime_error);
}

TEST(ConfigScenario, ConfiguredScenarioActuallyRuns) {
  const auto cfg = util::Config::parse(
      "[scenario]\nreplications = 2\n"
      "[cluster]\nprocessors = 4\n"
      "[comm]\nmean_cost = 2\n"
      "[workload]\ndist = uniform\nparam_a = 10\nparam_b = 100\ncount = 40\n"
      "[scheduler]\nmax_generations = 20\nbatch_size = 20\n");
  const auto s = scenario_from_config(cfg);
  const auto p = scheduler_params_from_config(cfg);
  const auto runs = run_replications(s, "PN", p);
  ASSERT_EQ(runs.size(), 2u);
  for (const auto& r : runs) EXPECT_EQ(r.tasks_completed, 40u);
}

// Sections no reader asks for are ignored: the run is the one the plain
// config gives, bit for bit.
TEST(ConfigScenario, UnknownSectionsLeaveTheRunUnchanged) {
  const std::string base =
      "[scenario]\nreplications = 1\n"
      "[cluster]\nprocessors = 4\n"
      "[comm]\nmean_cost = 2\n"
      "[workload]\ndist = uniform\nparam_a = 10\nparam_b = 100\n"
      "count = 40\n"
      "[scheduler]\nmax_generations = 20\nbatch_size = 20\n";
  const auto run = [](const std::string& ini) {
    const auto cfg = util::Config::parse(ini);
    return run_one(scenario_from_config(cfg), "PN",
                   scheduler_params_from_config(cfg), 0);
  };
  const auto plain = run(base);
  const auto extra = run(base +
                         "[notes]\nmode = fast\ntolerance = 1e-9\n"
                         "[cluster.spare]\nprocessors = -3\n");
  EXPECT_EQ(extra.tasks_completed, 40u);
  EXPECT_EQ(extra.tasks_completed, plain.tasks_completed);
  EXPECT_EQ(extra.makespan, plain.makespan);
  EXPECT_EQ(extra.mean_response_time, plain.mean_response_time);
  EXPECT_EQ(extra.scheduler_invocations, plain.scheduler_invocations);
}

TEST(ConfigScenario, ParetoScenarioRunsFromConfig) {
  const auto cfg = util::Config::parse(
      "[scenario]\nreplications = 2\n"
      "[cluster]\nprocessors = 4\n"
      "[comm]\nmean_cost = 2\n"
      "[workload]\ndist = pareto\nalpha = 1.3\nlo = 10\nhi = 5000\n"
      "count = 50\n"
      "[scheduler]\nmax_generations = 15\nbatch_size = 25\n");
  const auto s = scenario_from_config(cfg);
  EXPECT_EQ(s.workload.dist, "pareto");
  const auto dist = make_distribution(s.workload);
  EXPECT_EQ(dist->name(), "pareto");
  EXPECT_DOUBLE_EQ(dist->min_size(), 10.0);
  const auto runs =
      run_replications(s, "PN", scheduler_params_from_config(cfg));
  ASSERT_EQ(runs.size(), 2u);
  for (const auto& r : runs) EXPECT_EQ(r.tasks_completed, 50u);
}

TEST(ConfigScenario, BimodalScenarioRunsFromConfig) {
  const auto cfg = util::Config::parse(
      "[scenario]\nreplications = 1\n"
      "[cluster]\nprocessors = 4\n"
      "[comm]\nmean_cost = 2\n"
      "[workload]\ndist = bimodal\nmean_small = 50\nvar_small = 100\n"
      "mean_large = 2000\nvar_large = 10000\nweight_small = 0.7\n"
      "count = 50\n"
      "[scheduler]\nmax_generations = 15\nbatch_size = 25\n");
  const auto s = scenario_from_config(cfg);
  EXPECT_EQ(s.workload.dist, "bimodal");
  EXPECT_EQ(make_distribution(s.workload)->name(), "bimodal");
  const auto runs =
      run_replications(s, "PN", scheduler_params_from_config(cfg));
  ASSERT_EQ(runs.size(), 1u);
  EXPECT_EQ(runs[0].tasks_completed, 50u);
}

}  // namespace
}  // namespace gasched::exp
