#include "rt/serve_config.hpp"

#include <stdexcept>

#include "util/parse.hpp"
#include "workload/arrival.hpp"

namespace gasched::rt {

ServeSetup serve_setup_from_config(const util::Config& cfg) {
  ServeSetup s;

  if (cfg.has("runtime.speeds")) {
    // "1.0, 0.5, 0.25": one speed factor per worker.
    for (const auto& item :
         util::split_list("runtime.speeds", cfg.get("runtime.speeds", ""))) {
      s.runtime.worker_speeds.push_back(
          util::read_double("runtime.speeds", item));
    }
    if (s.runtime.worker_speeds.empty()) {
      throw std::runtime_error("runtime.speeds: empty list");
    }
  } else {
    const auto workers = cfg.get_int("runtime.workers", 4);
    if (workers < 1) {
      throw std::runtime_error("runtime.workers must be >= 1");
    }
    s.runtime.worker_speeds.assign(static_cast<std::size_t>(workers), 1.0);
  }
  s.runtime.work_scale = cfg.get_double("runtime.work_scale", 0.01);
  const double latency = cfg.get_double("runtime.dispatch_latency", 0.0);
  if (latency < 0.0) {
    throw std::runtime_error("runtime.dispatch_latency must be >= 0");
  }
  if (latency > 0.0) {
    s.runtime.dispatch_latency.assign(s.runtime.worker_speeds.size(),
                                      latency);
  }
  const auto ring = cfg.get_int("runtime.ring_capacity", 1024);
  if (ring < 2) throw std::runtime_error("runtime.ring_capacity must be >= 2");
  s.runtime.ring_capacity = static_cast<std::size_t>(ring);
  const auto polls = cfg.get_int("runtime.spin_polls", 4096);
  if (polls < 0) throw std::runtime_error("runtime.spin_polls must be >= 0");
  s.runtime.spin_polls = static_cast<std::size_t>(polls);
  s.runtime.seed = cfg.get_size("runtime.seed", 1);

  s.serve.duration_s = cfg.get_double("runtime.duration", 5.0);
  s.serve.rate = cfg.get_double("runtime.rate", 1000.0);
  s.serve.policy = cfg.get("runtime.policy", "rr");
  parse_route_policy(s.serve.policy);  // eager: unknown names fail here
  s.serve.arrival = cfg.get("runtime.arrival", "constant");
  s.serve.arrival_params = cfg.section("runtime");
  if (s.serve.arrival != "constant" && s.serve.arrival != "" &&
      s.serve.arrival != "poisson") {
    // Eager validation: an unknown preset throws here, listing every
    // valid name (workload::arrival_preset_names).
    workload::make_rate_function(s.serve.arrival, 1.0,
                                 s.serve.arrival_params);
  }
  const auto batch = cfg.get_int("runtime.admission_batch", 32);
  if (batch < 1) {
    throw std::runtime_error("runtime.admission_batch must be >= 1");
  }
  s.serve.admission_batch = static_cast<std::size_t>(batch);
  const auto qcap = cfg.get_int("runtime.queue_capacity", 4096);
  if (qcap < 1) {
    throw std::runtime_error("runtime.queue_capacity must be >= 1");
  }
  s.serve.queue_capacity = static_cast<std::size_t>(qcap);
  const std::string overload = cfg.get("runtime.overload", "shed");
  if (overload == "shed") {
    s.serve.shed = true;
  } else if (overload == "block") {
    s.serve.shed = false;
  } else {
    throw std::runtime_error("unknown overload mode '" + overload +
                             "' (valid: shed, block)");
  }
  return s;
}

}  // namespace gasched::rt
