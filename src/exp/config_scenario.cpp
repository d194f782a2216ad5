#include "exp/config_scenario.hpp"

#include <algorithm>
#include <cmath>
#include <iterator>
#include <sstream>
#include <stdexcept>

#include "exp/registry.hpp"
#include "workload/arrival.hpp"

namespace gasched::exp {

namespace {

sim::AvailabilityKind availability_from_name(const std::string& name) {
  if (name == "fixed") return sim::AvailabilityKind::kFixed;
  if (name == "sinusoidal") return sim::AvailabilityKind::kSinusoidal;
  if (name == "random_walk") return sim::AvailabilityKind::kRandomWalk;
  if (name == "two_state") return sim::AvailabilityKind::kTwoState;
  throw std::runtime_error("scenario config: unknown availability '" + name +
                           "'");
}

}  // namespace

std::size_t positive_size(const util::Config& cfg, const std::string& key,
                          std::size_t fallback) {
  const std::size_t v = cfg.get_size(key, fallback);
  if (v == 0) {
    throw std::runtime_error("config: key '" + key + "' must be at least 1");
  }
  return v;
}

WorkloadSpec workload_from_config(const util::Config& cfg) {
  WorkloadSpec w;
  // Resolve the family eagerly so a bad `dist` fails here, with the full
  // list of registered families, not deep inside a replication run.
  w.dist = DistributionRegistry::instance().canonical_name(
      cfg.get("workload.dist", "normal"));
  w.param_a = cfg.get_double("workload.param_a", 1000.0);
  w.param_b = cfg.get_double("workload.param_b", 9e5);
  w.params = Params::from_config(cfg, "workload");
  w.count = positive_size(cfg, "workload.count", 1000);
  w.all_at_start = cfg.get_bool("workload.all_at_start", true);
  w.mean_interarrival = cfg.get_double("workload.mean_interarrival", 1.0);
  w.burstiness = cfg.get_double("workload.burstiness", 1.0);
  w.burst_dwell = cfg.get_double("workload.burst_dwell", 50.0);
  w.arrival = cfg.get("workload.arrival", "constant");
  // Fail on an unknown preset here, listing the valid names, not deep
  // inside a replication run (mirrors the eager `dist` resolution above).
  // A name all_at_start leaves unused is still checked; its shape keys
  // are checked only where they shape a stream.
  if (w.all_at_start) {
    workload::make_rate_function(w.arrival, 1.0, {});
  } else {
    make_arrival(w);
  }
  return w;
}

Scenario scenario_from_config(const util::Config& cfg) {
  Scenario s;
  s.name = cfg.get("scenario.name", "config");
  s.seed = static_cast<std::uint64_t>(cfg.get_int("scenario.seed", 42));
  s.replications = positive_size(cfg, "scenario.replications", 5);
  s.sched_time_scale = cfg.get_double("scenario.sched_time_scale", 0.0);
  s.comm_nu = cfg.get_double("scenario.comm_nu", 0.5);
  s.rate_nu = cfg.get_double("scenario.rate_nu", 0.5);

  s.cluster.num_processors = positive_size(cfg, "cluster.processors", 50);
  s.cluster.rate_lo = cfg.get_double("cluster.rate_lo", 10.0);
  s.cluster.rate_hi = cfg.get_double("cluster.rate_hi", 100.0);
  s.cluster.availability =
      availability_from_name(cfg.get("cluster.availability", "fixed"));
  s.cluster.avail_lo = cfg.get_double("cluster.avail_lo", 0.5);
  s.cluster.avail_hi = cfg.get_double("cluster.avail_hi", 1.0);
  s.cluster.avail_period = cfg.get_double("cluster.avail_period", 500.0);
  s.cluster.zero_comm = cfg.get_bool("cluster.zero_comm", false);
  s.cluster.drifting_comm = cfg.get_bool("cluster.drifting_comm", false);
  s.cluster.comm_drift_step = cfg.get_double("cluster.comm_drift_step", 0.1);

  s.cluster.comm.mean_cost = cfg.get_double("comm.mean_cost", 20.0);
  s.cluster.comm.spread_cv = cfg.get_double("comm.spread_cv", 0.5);
  s.cluster.comm.jitter_cv = cfg.get_double("comm.jitter_cv", 0.2);
  s.cluster.comm.floor = cfg.get_double("comm.floor", 1e-3);

  s.workload = workload_from_config(cfg);

  if (cfg.get_bool("failures.enabled", false)) {
    sim::FailureConfig f;
    f.mean_uptime = cfg.get_double("failures.mean_uptime", 5000.0);
    f.mean_downtime = cfg.get_double("failures.mean_downtime", 200.0);
    f.horizon = cfg.get_double("failures.horizon", 100000.0);
    f.failing_fraction = cfg.get_double("failures.failing_fraction", 1.0);
    s.failures = f;
  }
  return s;
}

SchedulerParams scheduler_params_from_config(const util::Config& cfg) {
  return Params::from_config(cfg, "scheduler");
}

metrics::RelaxationBoundOptions bounds_from_config(const util::Config& cfg) {
  metrics::RelaxationBoundOptions opts;
  opts.enabled = cfg.get_bool("bounds.enabled", false);
  opts.tolerance = cfg.get_double("bounds.tolerance", opts.tolerance);
  opts.max_iterations =
      cfg.get_size("bounds.max_iterations", opts.max_iterations);
  return opts;
}

namespace {

std::string lower_token(std::string s) {
  std::transform(s.begin(), s.end(), s.begin(),
                 [](unsigned char c) { return std::tolower(c); });
  return s;
}

std::vector<std::string> split_list(const std::string& text) {
  std::vector<std::string> tokens;
  std::istringstream ss(text);
  std::string token;
  while (std::getline(ss, token, ',')) {
    const auto first = token.find_first_not_of(" \t");
    if (first == std::string::npos) continue;
    const auto last = token.find_last_not_of(" \t");
    tokens.push_back(token.substr(first, last - first + 1));
  }
  return tokens;
}

/// The values of one [sweep] axis. A `count` axis (processors, tasks,
/// replications) is cast to std::size_t, so each of its values must be
/// an integer in [1, 2^64): a negative, fractional, NaN or huge one
/// would make that cast undefined, and a zero would make an empty run.
std::vector<double> parse_axis_values(const std::string& key,
                                      const std::string& text, bool count) {
  std::vector<double> values;
  for (const auto& token : split_list(text)) {
    double v = 0.0;
    try {
      std::size_t pos = 0;
      v = std::stod(token, &pos);
      if (pos != token.size()) throw std::invalid_argument(token);
    } catch (const std::exception&) {
      throw std::runtime_error("sweep config: key '" + key +
                               "' has non-numeric value '" + token + "'");
    }
    if (count && !(v >= 1.0 && v < 0x1p64 && v == std::floor(v))) {
      throw std::runtime_error("sweep config: key '" + key +
                               "' needs a positive integer, not '" + token +
                               "'");
    }
    values.push_back(v);
  }
  if (values.empty()) {
    throw std::runtime_error("sweep config: key '" + key +
                             "' has no values");
  }
  return values;
}

using ScenarioAxisApply = void (*)(SweepCell&, double);

/// The first kCountAxes entries of kScenarioAxes set counts, whose
/// values parse_axis_values() must check.
constexpr std::size_t kCountAxes = 3;

/// [sweep] keys that sweep the scenario itself; anything else becomes a
/// [scheduler] parameter axis.
const std::pair<const char*, ScenarioAxisApply> kScenarioAxes[] = {
    {"procs",
     [](SweepCell& c, double v) {
       c.scenario.cluster.num_processors = static_cast<std::size_t>(v);
     }},
    {"tasks",
     [](SweepCell& c, double v) {
       c.scenario.workload.count = static_cast<std::size_t>(v);
     }},
    {"replications",
     [](SweepCell& c, double v) {
       c.scenario.replications = static_cast<std::size_t>(v);
     }},
    {"mean_comm_cost",
     [](SweepCell& c, double v) { c.scenario.cluster.comm.mean_cost = v; }},
    {"comm_nu", [](SweepCell& c, double v) { c.scenario.comm_nu = v; }},
    {"rate_nu", [](SweepCell& c, double v) { c.scenario.rate_nu = v; }},
    {"sched_time_scale",
     [](SweepCell& c, double v) { c.scenario.sched_time_scale = v; }},
    {"mean_interarrival",
     [](SweepCell& c, double v) {
       c.scenario.workload.mean_interarrival = v;
     }},
    {"burstiness",
     [](SweepCell& c, double v) { c.scenario.workload.burstiness = v; }},
    {"param_a",
     [](SweepCell& c, double v) { c.scenario.workload.param_a = v; }},
    {"param_b",
     [](SweepCell& c, double v) { c.scenario.workload.param_b = v; }},
};

}  // namespace

std::vector<std::string> expand_scheduler_selector(
    const std::string& selector) {
  const auto& registry = SchedulerRegistry::instance();
  std::vector<std::string> names;
  auto add = [&](const std::string& canonical) {
    if (std::find(names.begin(), names.end(), canonical) == names.end()) {
      names.push_back(canonical);
    }
  };
  const auto tokens = split_list(selector);
  if (tokens.empty()) return all_schedulers();
  for (const auto& token : tokens) {
    const std::string t = lower_token(token);
    if (t == "all") {
      for (const auto& name : registry.names()) add(name);
    } else if (t == "paper") {
      for (const auto& name : registry.names_tagged(kSchedulerTagPaper))
        add(name);
    } else if (t == "baseline" || t == "baselines") {
      for (const auto& name : registry.names_tagged(kSchedulerTagBaseline))
        add(name);
    } else if (t == "metaheuristic" || t == "metaheuristics" || t == "meta") {
      for (const auto& name :
           registry.names_tagged(kSchedulerTagMetaheuristic))
        add(name);
    } else {
      add(registry.canonical_name(token));
    }
  }
  return names;
}

Sweep sweep_from_config(const util::Config& cfg,
                        const std::string& scheduler_override) {
  Sweep sweep(cfg.get("scenario.name", "config"));
  sweep.base(scenario_from_config(cfg));
  sweep.params(scheduler_params_from_config(cfg));

  std::string selector = cfg.get("sweep.schedulers", "");
  if (!scheduler_override.empty()) selector = scheduler_override;

  // Scalar axes in file key order (lexicographic — Config::section's
  // order), so the flattening is reproducible from the file alone.
  for (const auto& [key, value] : cfg.section("sweep")) {
    if (key == "schedulers") continue;
    const auto* axis =
        std::find_if(std::begin(kScenarioAxes), std::end(kScenarioAxes),
                     [&](const auto& a) { return key == a.first; });
    const auto values = parse_axis_values(
        key, value, axis < std::begin(kScenarioAxes) + kCountAxes);
    if (axis != std::end(kScenarioAxes)) {
      sweep.axis(key, values, axis->second);
    } else {
      sweep.param_axis(key, values);
    }
  }

  // The scheduler axis is always innermost: rows group by parameter
  // point, matching how comparison tables read.
  sweep.schedulers(expand_scheduler_selector(selector));
  return sweep;
}

}  // namespace gasched::exp
