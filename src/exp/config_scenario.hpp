#pragma once
// Declarative scenarios from INI-style config files, so experiments can be
// defined, shared, and replayed without recompiling. See
// examples/scenario_example.ini for the full key reference.

#include "exp/scenario.hpp"
#include "exp/sweep.hpp"
#include "metrics/bounds.hpp"
#include "util/config.hpp"

namespace gasched::exp {

/// Builds a Scenario from a parsed config. Recognised keys (all optional,
/// defaults in parentheses):
///
///   [scenario]  name (config), seed (42), replications (5),
///               sched_time_scale (0), comm_nu (0.5), rate_nu (0.5)
///   [cluster]   processors (50), rate_lo (10), rate_hi (100),
///               availability (fixed|sinusoidal|random_walk|two_state),
///               avail_lo, avail_hi, avail_period, zero_comm,
///               drifting_comm, comm_drift_step
///   [comm]      mean_cost (20), spread_cv (0.5), jitter_cv (0.2), floor
///   [workload]  dist (any DistributionRegistry family: normal, uniform,
///               poisson, constant, pareto, bimodal, ...; case-
///               insensitive), param_a, param_b, per-family named keys
///               (see exp/registry.hpp), count (1000), all_at_start
///               (true), mean_interarrival (1), burstiness (1),
///               burst_dwell (50), arrival (constant|diurnal|ramp|flash,
///               plus the arrival_* shape keys of
///               workload::make_rate_function)
///   [failures]  enabled (false), mean_uptime, mean_downtime, horizon,
///               failing_fraction
///
/// Throws std::runtime_error on unknown enumeration values and on
/// negative or zero counts (replications, processors, count), naming the
/// key;
/// the unknown-distribution error lists every registered family.
Scenario scenario_from_config(const util::Config& cfg);

/// The [scheduler] section as a SchedulerParams view, handed verbatim to
/// whichever scheduler factories the caller invokes. Shared keys are
/// documented in exp/params.hpp, per-scheduler keys in exp/registry.hpp.
SchedulerParams scheduler_params_from_config(const util::Config& cfg);

/// The [bounds] section as metrics::RelaxationBoundOptions:
///
///   [bounds]  enabled (false), tolerance (1e-8), max_iterations (60)
///
/// Note `enabled` defaults to *false* here — configs opt in to the
/// certified-bound report — while RelaxationBoundOptions{} defaults to
/// true for direct API callers. See docs/bounds.md.
metrics::RelaxationBoundOptions bounds_from_config(const util::Config& cfg);

/// Expands a scheduler selector into canonical registry names: a
/// comma-separated mix of registry names and the tag words `paper`,
/// `baseline`, `metaheuristic` (or `meta`), plus `all` for every entry.
/// Duplicates collapse (first occurrence wins); an empty selector means
/// the paper's seven. Unknown names throw listing every registered name.
std::vector<std::string> expand_scheduler_selector(
    const std::string& selector);

/// Builds a declarative experiment grid from a config: the scenario
/// sections define the base cell (scenario_from_config /
/// scheduler_params_from_config) and the optional [sweep] section adds
/// axes:
///
///   [sweep]  schedulers (selector, default paper; always the innermost
///            axis), plus any number of `key = v1, v2, ...` scalar axes.
///            Scenario keys — procs, tasks, replications, mean_comm_cost,
///            comm_nu, rate_nu, sched_time_scale, mean_interarrival,
///            burstiness, param_a, param_b — sweep the scenario; every
///            other key sweeps a [scheduler] parameter of that name.
///            procs, tasks and replications take positive integers
///            only. Scalar axes flatten in file key order (lexicographic).
///
/// Without a [sweep] section the grid is the scheduler axis alone — the
/// classic one-scenario scheduler comparison. `scheduler_override`, when
/// non-empty, replaces the config's scheduler selector (the CLI flag).
Sweep sweep_from_config(const util::Config& cfg,
                        const std::string& scheduler_override = "");

}  // namespace gasched::exp
