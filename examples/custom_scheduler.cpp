// Extending gasched without touching the library: implement a
// sim::SchedulingPolicy, register it in exp::SchedulerRegistry under a
// name of your choice, and the whole experiment harness — INI scenarios,
// run_replications, aggregation, --schedulers lists — can drive it next
// to the 17 built-ins. Also demonstrates seeding simulated processor
// rates from a *real* Linpack measurement of the host machine, the same
// calibration the paper uses for real workers.
//
//   ./custom_scheduler [--tasks N] [--seed S]

#include <iostream>
#include <memory>

#include "exp/config_scenario.hpp"
#include "exp/registry.hpp"
#include "exp/runner.hpp"
#include "sim/linpack.hpp"
#include "util/cli.hpp"
#include "util/table.hpp"

using namespace gasched;

namespace {

/// A deliberately naive policy: every task goes to a uniformly random
/// processor. Implementing sim::SchedulingPolicy is all it takes to run
/// inside the engine and the experiment harness.
class RandomPolicy final : public sim::SchedulingPolicy {
 public:
  sim::BatchAssignment invoke(const sim::SystemView& view,
                              std::deque<workload::Task>& queue,
                              util::Rng& rng) override {
    auto a = sim::BatchAssignment::empty(view.size());
    while (!queue.empty()) {
      a.per_proc[rng.index(view.size())].push_back(queue.front().id);
      queue.pop_front();
    }
    return a;
  }
  std::string name() const override { return "RAND"; }
};

/// The scenario as it would live in a .ini file — once registered, the
/// [scheduler] section can select and tune RAND exactly like a built-in.
constexpr const char* kScenarioIni = R"(
[scenario]
name = custom
replications = 3

[cluster]
processors = 12

[comm]
mean_cost = 10

[workload]
dist = uniform
lo = 10
hi = 1000

[scheduler]
name = RAND
max_generations = 150
)";

}  // namespace

int main(int argc, char** argv) try {
  const util::Cli cli(argc, argv);
  const auto tasks = cli.get_size("tasks", 400);
  const auto seed = cli.get_size("seed", 3);

  // --- Register the custom policy through the public registry API ------
  exp::SchedulerRegistry::instance().add(
      {.name = "RAND",
       .summary = "uniformly random placement (example custom scheduler)",
       .factory = [](const exp::SchedulerParams&) {
         return std::make_unique<RandomPolicy>();
       }});

  std::cout << "Registered schedulers (17 built-ins + RAND):\n ";
  for (const auto& name : exp::SchedulerRegistry::instance().names()) {
    std::cout << " " << name;
  }
  std::cout << "\n\n";

  // --- Calibrate: measure this host with the Linpack-style benchmark ----
  util::Rng lin_rng(seed);
  const sim::LinpackResult lin = sim::linpack_benchmark(256, lin_rng);
  std::cout << "Host Linpack (n=" << lin.n << "): "
            << util::fmt(lin.mflops, 5) << " Mflop/s in "
            << util::fmt(lin.seconds * 1e3, 4) << " ms (residual "
            << lin.residual << ")\n\n";

  // --- Build the scenario from the INI text above ----------------------
  const util::Config cfg = util::Config::parse(kScenarioIni);
  exp::Scenario s = exp::scenario_from_config(cfg);
  const exp::SchedulerParams params = exp::scheduler_params_from_config(cfg);
  s.workload.count = tasks;
  s.seed = seed;
  // Scale the simulated rates so the fastest machine matches this host.
  s.cluster.rate_hi = std::max(lin.mflops, 20.0);
  s.cluster.rate_lo = s.cluster.rate_hi / 10.0;

  // --- Run the INI-selected custom policy and two built-ins ------------
  // Every scheduler sees identical tasks and machines per replication
  // (the runner's same-workload guarantee), so the rows are comparable.
  const std::string custom = cfg.get("scheduler.name", "RAND");
  util::Table table({"scheduler", "makespan", "ci95", "efficiency"});
  for (const std::string& name :
       {custom, std::string("EF"), std::string("PN")}) {
    const auto cell = exp::run_cell(s, name, params);
    table.add_row(cell.scheduler,
                  {cell.makespan.mean, cell.makespan.ci95,
                   cell.efficiency.mean});
  }
  table.print(std::cout);
  std::cout << "\nWrite your own sim::SchedulingPolicy subclass, add it to "
               "exp::SchedulerRegistry, and every INI scenario, bench and "
               "example can select it by name — no library edits.\n";
  return 0;
} catch (const std::exception& e) {
  std::cerr << "error: " << e.what() << "\n";
  return 1;
}
