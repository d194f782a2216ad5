#include "exp/figset.hpp"

#include <algorithm>
#include <cctype>
#include <charconv>
#include <cstdlib>
#include <fstream>
#include <limits>
#include <map>
#include <stdexcept>
#include <string_view>
#include <system_error>

#include "exp/runner.hpp"
#include "ga/engine.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"
#include "util/table.hpp"
#include "util/thread_pool.hpp"

namespace gasched::exp {

namespace {

// --- grid building blocks ---------------------------------------------------

/// Shared [scheduler] parameters for a figure grid at scale `s` (the
/// same set bench_common::scheduler_params builds from BenchParams).
SchedulerParams fig_params(const FigScale& s, bool pn_dynamic_batch) {
  SchedulerParams o;
  o.set("batch_size", s.batch);
  o.set("max_generations", s.generations);
  o.set("population", s.population);
  o.set("pn_dynamic_batch", pn_dynamic_batch);
  return o;
}

/// The standard figure scenario: paper cluster at `mean_comm_cost` with
/// `spec` sizes, scaled by `s`.
Scenario fig_scenario(const FigScale& s, const WorkloadSpec& spec,
                      double mean_comm_cost, std::string name) {
  Scenario sc;
  sc.name = std::move(name);
  sc.cluster = paper_cluster(mean_comm_cost, s.procs);
  sc.workload = spec;
  sc.workload.count = s.tasks;
  sc.seed = s.seed;
  sc.replications = s.reps;
  return sc;
}

Sweep fig_sweep(const std::string& id, const FigScale& s,
                const WorkloadSpec& spec, double mean_comm_cost,
                bool pn_dynamic_batch) {
  Sweep sweep(id);
  sweep.base(fig_scenario(s, spec, mean_comm_cost, id));
  sweep.params(fig_params(s, pn_dynamic_batch));
  return sweep;
}

/// Label of `axis` on an executed row, parsed as a double.
double row_coord(const metrics::SweepRow& row, const std::string& axis) {
  for (const auto& [name, label] : row.coords) {
    if (name == axis) return std::stod(label);
  }
  throw std::out_of_range("figset: row has no axis '" + axis + "'");
}

WorkloadSpec dist_spec(const std::string& dist, double a, double b = 0.0) {
  WorkloadSpec spec;
  spec.dist = dist;
  spec.param_a = a;
  spec.param_b = b;
  return spec;
}

// --- makespan bar figures (6, 8, 9, 10, 11) ---------------------------------

/// A seven-scheduler makespan bar chart: one grid row per scheduler in
/// all_schedulers() order; `check` receives the mean makespans in that
/// order.
FigureDef makespan_figure(
    std::string id, std::string number, std::string title,
    std::string expectation, std::string section, std::string tag,
    WorkloadSpec spec, double mean_comm_cost,
    std::function<void(const std::vector<double>&, std::ostream&)> check) {
  FigureDef def;
  def.id = std::move(id);
  def.number = std::move(number);
  def.title = std::move(title);
  def.paper_expectation = std::move(expectation);
  def.paper_section = std::move(section);
  def.tags = {"makespan", std::move(tag)};
  def.build = [id = def.id, spec, mean_comm_cost](const FigScale& s) {
    Sweep sweep = fig_sweep(id, s, spec, mean_comm_cost,
                            /*pn_dynamic_batch=*/true);
    sweep.schedulers(all_schedulers());
    return sweep;
  };
  def.report = [check = std::move(check)](const SweepResult& r,
                                          const FigScale&, std::ostream& os) {
    check(r.makespan_means(), os);
  };
  return def;
}

// --- efficiency sweep figures (5, 7) ----------------------------------------

std::vector<double> efficiency_inv_costs(bool full) {
  return full ? std::vector<double>{0.01, 0.02, 0.03, 0.04, 0.05,
                                    0.06, 0.07, 0.08, 0.09, 0.10}
              : std::vector<double>{0.01, 0.025, 0.05, 0.075, 0.10};
}

/// Pivots an efficiency grid (inv_comm_cost × the paper's seven) into
/// the paper's reading direction — one row per cost point, schedulers as
/// columns — prints the table, and returns rows[point] = {inv_cost,
/// eff...}.
std::vector<std::vector<double>> print_efficiency_pivot(
    const SweepResult& r, std::ostream& os) {
  const auto schedulers = all_schedulers();
  const std::size_t stride = schedulers.size();
  const std::size_t points = r.rows.size() / stride;
  std::vector<std::string> header{"1/mean_comm_cost"};
  for (const auto& kind : schedulers) header.push_back(kind);
  util::Table table(header);
  std::vector<std::vector<double>> rows;
  for (std::size_t pi = 0; pi < points; ++pi) {
    const double inv = row_coord(r.rows[pi * stride], "inv_comm_cost");
    std::vector<double> row{inv};
    std::vector<std::string> cells{util::fmt(inv, 3)};
    for (std::size_t si = 0; si < stride; ++si) {
      const double eff = r.rows[pi * stride + si].cell.efficiency.mean;
      row.push_back(eff);
      cells.push_back(util::fmt(eff, 4));
    }
    table.add_row(cells);
    rows.push_back(std::move(row));
  }
  table.print(os);
  return rows;
}

FigureDef efficiency_figure(
    std::string id, std::string number, std::string title,
    std::string expectation, std::string section, std::string tag,
    WorkloadSpec spec,
    std::function<void(const std::vector<std::vector<double>>&,
                       std::ostream&)>
        check) {
  FigureDef def;
  def.id = std::move(id);
  def.number = std::move(number);
  def.title = std::move(title);
  def.paper_expectation = std::move(expectation);
  def.paper_section = std::move(section);
  def.tags = {"efficiency", std::move(tag)};
  def.full_tasks = 1000;  // the paper uses 1000 tasks for these figures
  def.grid_table = false;
  def.build = [id = def.id, spec](const FigScale& s) {
    // The paper fixes the batch size at 200 here (no dynamic batch).
    Sweep sweep = fig_sweep(id, s, spec, /*mean_comm_cost=*/20.0,
                            /*pn_dynamic_batch=*/false);
    sweep.axis("inv_comm_cost", efficiency_inv_costs(s.full),
               [](SweepCell& c, double inv) {
                 c.scenario.cluster.comm.mean_cost = 1.0 / inv;
               });
    sweep.schedulers(all_schedulers());
    return sweep;
  };
  def.report = [check = std::move(check)](const SweepResult& r,
                                          const FigScale&, std::ostream& os) {
    check(print_efficiency_pivot(r, os), os);
  };
  return def;
}

// --- Figure 3: GA convergence trajectories ----------------------------------

/// Sampling stride for the trajectory columns (~20 points per run).
std::size_t fig3_step(std::size_t generations) {
  return std::max<std::size_t>(1, generations / 20);
}

/// Mean makespan-reduction trajectory (one value per generation) for
/// `level` re-balances per individual, averaged over s.reps replications.
/// `cell_index` keeps the historical GA stream assignment (level index).
std::vector<double> fig3_trajectory(const FigScale& s, std::size_t level,
                                    std::size_t cell_index, bool parallel) {
  std::vector<std::vector<double>> per_rep(
      s.reps, std::vector<double>(s.generations + 1, 0.0));
  util::for_each_index(s.reps, parallel, [&](std::size_t rep) {
    const util::Rng base(s.seed);
    const ga::RouletteSelection sel;
    const ga::CycleCrossover cx;
    const ga::SwapMutation mut;
    const ga::GaEngine engine({.population = s.population,
                               .max_generations = s.generations,
                               .improvement_passes = level,
                               .record_history = true},
                              sel, cx, mut);
    // All three series start from the *same* initial population (the
    // init stream depends on rep only) so the re-balance levels are
    // compared like-for-like.
    util::Rng init_rng = base.split(500 + rep);
    util::Rng ga_rng = base.split(1000 + 10 * rep + cell_index);
    const auto result = steady_state_ga(
        steady_state_batch(s.seed, rep, s.tasks, s.procs), engine,
        kDefaultRebalanceProbes, /*init_random_fraction=*/0.5, init_rng,
        ga_rng);
    const double initial = result.objective_history.front();
    for (std::size_t g = 0; g < per_rep[rep].size(); ++g) {
      const double ms = g < result.objective_history.size()
                            ? result.objective_history[g]
                            : result.objective_history.back();
      per_rep[rep][g] = 1.0 - ms / initial;
    }
  });

  std::vector<double> mean(s.generations + 1, 0.0);
  for (std::size_t rep = 0; rep < s.reps; ++rep) {
    for (std::size_t g = 0; g < mean.size(); ++g) mean[g] += per_rep[rep][g];
  }
  for (auto& v : mean) v /= static_cast<double>(s.reps);
  return mean;
}

FigureDef fig03_def() {
  FigureDef def;
  def.id = "fig03";
  def.number = "Figure 3";
  def.title = "makespan reduction per GA generation";
  def.paper_expectation =
      "largest gains in first ~100 generations; final makespan ~75% (pure "
      "GA) / ~70% (1 rebalance) / ~65% (50 rebalances) of initial";
  def.paper_section = "§3";
  def.tags = {"ga", "convergence"};
  def.quick_tasks = 200;
  def.quick_reps = 10;
  def.quick_generations = 300;
  def.full_tasks = 200;  // Fig 3 studies one batch, not the 10k-task stream
  def.grid_table = false;
  def.build = [](const FigScale& s) {
    Sweep sweep("fig03");
    sweep.base(fig_scenario(s, WorkloadSpec{}, 20.0, "fig03"));
    sweep.params(fig_params(s, /*pn_dynamic_batch=*/true));
    sweep.axis("rebalances", {0.0, 1.0, 50.0}, {});
    std::vector<std::string> cols{"final_reduction"};
    const std::size_t step = fig3_step(s.generations);
    for (std::size_t g = 0; g <= s.generations; g += step) {
      cols.push_back("red_g" + std::to_string(g));
    }
    sweep.extra_columns(std::move(cols));
    sweep.runner([s](const SweepCell& cell, bool parallel) {
      const auto level =
          static_cast<std::size_t>(cell.coord_value("rebalances"));
      const std::vector<double> traj =
          fig3_trajectory(s, level, cell.index, parallel);
      CellOutcome out;
      out.extras.emplace_back("final_reduction", traj.back());
      const std::size_t step = fig3_step(s.generations);
      for (std::size_t g = 0; g <= s.generations; g += step) {
        out.extras.emplace_back("red_g" + std::to_string(g), traj[g]);
      }
      return out;
    });
    return sweep;
  };
  def.report = [](const SweepResult& r, const FigScale& s,
                  std::ostream& os) {
    util::Table table(
        {"generation", "pure GA", "1 rebalance", "50 rebalances"});
    const std::size_t step = fig3_step(s.generations);
    for (std::size_t g = 0; g <= s.generations; g += step) {
      const std::string col = "red_g" + std::to_string(g);
      table.add_row(util::fmt(static_cast<double>(g), 6),
                    {r.rows[0].extra(col), r.rows[1].extra(col),
                     r.rows[2].extra(col)});
    }
    table.print(os);
    os << "\nFinal makespan as % of initial: pure GA="
       << util::fmt(100.0 * (1.0 - r.rows[0].extra("final_reduction")), 4)
       << "%  1 rebalance="
       << util::fmt(100.0 * (1.0 - r.rows[1].extra("final_reduction")), 4)
       << "%  50 rebalances="
       << util::fmt(100.0 * (1.0 - r.rows[2].extra("final_reduction")), 4)
       << "%\n";
  };
  return def;
}

// --- Figure 4: scheduling-time cost of re-balancing -------------------------

FigureDef fig04_def() {
  FigureDef def;
  def.id = "fig04";
  def.number = "Figure 4";
  def.title = "scheduling time vs re-balances per generation";
  def.paper_expectation =
      "wall-clock scheduling time increases linearly with the number of "
      "re-balances";
  def.paper_section = "§3";
  def.tags = {"overhead", "ga"};
  def.quick_tasks = 1500;
  def.quick_reps = 2;
  def.quick_generations = 60;
  def.build = [](const FigScale& s) {
    Sweep sweep = fig_sweep("fig04", s,
                            dist_spec("normal", 1000.0, 9e5),
                            /*mean_comm_cost=*/20.0,
                            /*pn_dynamic_batch=*/true);
    sweep.scheduler("PN");
    std::vector<double> levels;
    for (std::size_t k = 0; k <= 20; k += 2) {
      levels.push_back(static_cast<double>(k));
    }
    sweep.param_axis("rebalances", levels);
    return sweep;
  };
  def.report = [](const SweepResult& r, const FigScale&, std::ostream& os) {
    std::vector<double> levels, ys;
    for (const auto& row : r.rows) {
      levels.push_back(row_coord(row, "rebalances"));
      ys.push_back(row.cell.sched_wall.mean);
    }
    const util::LinearFit fit = util::linear_fit(levels, ys);
    os << "\nLinear fit: time = " << util::fmt(fit.intercept, 4) << " + "
       << util::fmt(fit.slope, 4) << " * rebalances   (R^2 = "
       << util::fmt(fit.r2, 4) << ")\n"
       << (fit.r2 > 0.9 ? "Shape REPRODUCED: linear growth.\n"
                        : "Shape NOT clearly linear at this scale.\n");
  };
  return def;
}

// --- Extension: certified optimality gap ------------------------------------

/// Extension grid quantifying the paper's unquantified "near-optimal"
/// claim: four schedulers on the H=600-task / M=50-processor batch, with
/// certified lower-bound columns from exp::BoundMemo (certified_bounds,
/// solved once per replication). `lb_qp`
/// (interior-point relaxation, docs/bounds.md) must dominate `lb_comb`
/// (combinatorial) on every cell — by construction it is their max — and
/// `gap_pct` is the scheduler's certified distance from optimal.
FigureDef extgap_def() {
  FigureDef def;
  def.id = "extgap";
  def.number = "Extension G";
  def.title = "certified optimality gap via the relaxation bound";
  def.paper_expectation =
      "lb_qp >= lb_comb on every cell, and the size-aware batch "
      "schedulers sit within tens of percent of the certified bound "
      "(quantifying §3's 'near-optimal schedules' claim)";
  def.paper_section = "§3";
  def.tags = {"bounds", "gap", "extension"};
  def.quick_tasks = 600;
  def.quick_reps = 3;
  def.quick_generations = 100;
  def.full_tasks = 600;  // the H=600, M=50 grid of docs/bounds.md
  def.build = [](const FigScale& s) {
    Sweep sweep = fig_sweep("extgap", s, dist_spec("normal", 1000.0, 9e5),
                            /*mean_comm_cost=*/10.0,
                            /*pn_dynamic_batch=*/true);
    sweep.schedulers({"PN", "EF", "MM", "RR"});
    sweep.extra_columns({"lb_comb", "lb_qp", "gap_pct"});
    // The four scheduler cells of a replication share its workload and
    // cluster, so the memo solves each replication's relaxation once per
    // run (run() calls a fresh copy of the runner, and with it an empty
    // memo).
    sweep.runner([memo = BoundMemo()](const SweepCell& cell, bool parallel) {
      CellOutcome out;
      out.summary =
          run_cell(cell.scenario, cell.scheduler, cell.params, parallel);
      const metrics::RelaxationBoundOptions opts;  // enabled, 1e-8, 60
      const CertifiedBounds b = memo.bounds(cell.scenario, opts, parallel);
      out.extras.emplace_back("lb_comb", b.lb_comb);
      out.extras.emplace_back("lb_qp", b.lb_qp);
      out.extras.emplace_back(
          "gap_pct", b.lb_qp > 0.0
                         ? 100.0 * (out.summary.makespan.mean / b.lb_qp - 1.0)
                         : 0.0);
      return out;
    });
    return sweep;
  };
  def.report = [](const SweepResult& r, const FigScale&, std::ostream& os) {
    bool dominates = true;
    double best_gap = std::numeric_limits<double>::infinity();
    std::string best;
    for (const auto& row : r.rows) {
      if (row.extra("lb_qp") < row.extra("lb_comb") - 1e-9) dominates = false;
      if (row.extra("gap_pct") < best_gap) {
        best_gap = row.extra("gap_pct");
        best = row.scheduler;
      }
    }
    os << "\nlb_qp dominates lb_comb on all cells: "
       << (dominates ? "YES" : "NO — BOUND BUG") << "\n"
       << "Tightest certified gap: " << best << " at "
       << util::fmt(best_gap, 4) << "% above the relaxation bound\n";
  };
  return def;
}

}  // namespace

// --- FigureDef --------------------------------------------------------------

FigScale FigureDef::scale(bool full) const {
  FigScale s;
  s.full = full;
  if (full) {
    s.tasks = full_tasks != 0 ? full_tasks : 10000;
    s.reps = 50;
    s.generations = 1000;
  } else {
    s.tasks = quick_tasks;
    s.reps = quick_reps;
    s.generations = quick_generations;
  }
  return s;
}

// --- FigSet -----------------------------------------------------------------

FigSet& FigSet::instance() {
  static FigSet set;
  return set;
}

FigSet::FigSet() {
  add(fig03_def());
  add(fig04_def());

  add(efficiency_figure(
      "fig05", "Figure 5", "efficiency vs 1/mean comm cost (normal task sizes)",
      "PN has the highest efficiency at every communication cost; all "
      "schedulers improve as communication gets cheaper",
      "§4.3", "normal", dist_spec("normal", 1000.0, 9e5),
      [](const std::vector<std::vector<double>>& rows, std::ostream& os) {
        // PN (column 5 = index 5 in row, after the x value) should win at
        // most sweep points.
        const std::size_t pn_col = 5;  // x, EF, LL, RR, ZO, PN, MM, MX
        std::size_t pn_wins = 0;
        for (const auto& row : rows) {
          bool best = true;
          for (std::size_t c = 1; c < row.size(); ++c) {
            if (c != pn_col && row[c] > row[pn_col]) best = false;
          }
          if (best) ++pn_wins;
        }
        os << "\nPN best at " << pn_wins << "/" << rows.size()
           << " sweep points.\n";
      }));

  add(makespan_figure(
      "fig06", "Figure 6", "makespan bars (normal task sizes, dynamic batch)",
      "PN has the lowest makespan of all seven schedulers", "§4.3", "normal",
      dist_spec("normal", 1000.0, 9e5), /*mean_comm_cost=*/20.0,
      [](const std::vector<double>& means, std::ostream& os) {
        const std::size_t pn = 4;  // EF LL RR ZO PN MM MX
        bool pn_best = true;
        for (std::size_t i = 0; i < means.size(); ++i) {
          if (i != pn && means[i] < means[pn]) pn_best = false;
        }
        os << "\nPN lowest makespan: " << (pn_best ? "YES" : "no") << "\n";
      }));

  add(efficiency_figure(
      "fig07", "Figure 7", "efficiency vs 1/mean comm cost (uniform 10-1000)",
      "the meta-heuristic schedulers (PN, ZO) are clearly more efficient "
      "than the simple heuristics",
      "§4.4", "uniform", dist_spec("uniform", 10.0, 1000.0),
      [](const std::vector<std::vector<double>>& rows, std::ostream& os) {
        // Mean efficiency of {PN, ZO} vs best simple heuristic.
        double meta = 0.0, heuristic = 0.0;
        for (const auto& row : rows) {
          meta += 0.5 * (row[4] + row[5]);  // ZO + PN
          double best_simple = 0.0;
          for (const std::size_t c : {1u, 2u, 3u, 6u, 7u}) {
            best_simple = std::max(best_simple, row[c]);
          }
          heuristic += best_simple;
        }
        os << "\nMean meta-heuristic efficiency "
           << util::fmt(meta / rows.size(), 4)
           << " vs best simple heuristic "
           << util::fmt(heuristic / rows.size(), 4) << "\n";
      }));

  add(makespan_figure(
      "fig08", "Figure 8", "makespan bars (uniform 10-100, ratio 1:10)",
      "schedulers perform similarly: the narrow task-size range flattens "
      "the differences",
      "§4.4", "uniform", dist_spec("uniform", 10.0, 100.0),
      /*mean_comm_cost=*/5.0,
      [](const std::vector<double>& means, std::ostream& os) {
        const auto s = util::summarize(means);
        os << "\nSpread across schedulers: (max-min)/mean = "
           << util::fmt((s.max - s.min) / s.mean, 4)
           << " (small spread expected)\n";
      }));

  add(makespan_figure(
      "fig09", "Figure 9", "makespan bars (uniform 10-10000, ratio 1:1000)",
      "differences between schedulers become accentuated; the "
      "meta-heuristic and size-aware batch schedulers lead, LL/RR trail "
      "badly",
      "§4.4", "uniform", dist_spec("uniform", 10.0, 10000.0),
      /*mean_comm_cost=*/5.0,
      [](const std::vector<double>& means, std::ostream& os) {
        const auto s = util::summarize(means);
        // EF LL RR ZO PN MM MX: load-aware schedulers vs load-blind LL/RR.
        const double pn = means[4];
        const double worst_blind = std::max(means[1], means[2]);
        os << "\nSpread across schedulers: (max-min)/mean = "
           << util::fmt((s.max - s.min) / s.mean, 4)
           << " (large spread expected)\nPN vs worst load-blind scheduler: "
           << util::fmt(pn, 5) << " vs " << util::fmt(worst_blind, 5)
           << " (accentuated gap expected)\n";
      }));

  add(makespan_figure(
      "fig10", "Figure 10", "makespan bars (Poisson task sizes, mean 10 MFLOPs)",
      "PN best, MM next; MX performs badly at this small mean", "§4.5",
      "poisson", dist_spec("poisson", 10.0), /*mean_comm_cost=*/1.0,
      [](const std::vector<double>& means, std::ostream& os) {
        const std::size_t pn = 4, mm = 5, mx = 6;
        bool pn_best = true;
        for (std::size_t i = 0; i < means.size(); ++i) {
          if (i != pn && means[i] < means[pn]) pn_best = false;
        }
        os << "\nPN lowest makespan: " << (pn_best ? "YES" : "no")
           << "; MM/MX ratio = " << util::fmt(means[mm] / means[mx], 4)
           << " (< 1 expected: MM beats MX at small means)\n";
      }));

  add(makespan_figure(
      "fig11", "Figure 11",
      "makespan bars (Poisson task sizes, mean 100 MFLOPs)",
      "batch schedulers all perform well; immediate-mode schedulers trail",
      "§4.5", "poisson", dist_spec("poisson", 100.0), /*mean_comm_cost=*/1.0,
      [](const std::vector<double>& means, std::ostream& os) {
        // EF LL RR ZO PN MM MX — batch (3,4,5,6) vs immediate (0,1,2).
        const double batch =
            (means[3] + means[4] + means[5] + means[6]) / 4.0;
        const double immediate = (means[0] + means[1] + means[2]) / 3.0;
        os << "\nMean batch makespan " << util::fmt(batch, 5)
           << " vs immediate " << util::fmt(immediate, 5)
           << " (batch <= immediate expected)\n";
      }));

  // Extension figures (not in the paper) register after the paper's
  // nine, keeping their positional order stable for tests and docs.
  add(extgap_def());
}

void FigSet::add(FigureDef def) {
  if (def.id.empty()) {
    throw std::invalid_argument("FigSet: figure id must not be empty");
  }
  if (!def.build) {
    throw std::invalid_argument("FigSet: figure '" + def.id +
                                "' has no build function");
  }
  for (const auto& existing : figures_) {
    if (existing.id == def.id) {
      throw std::invalid_argument("FigSet: duplicate figure id '" + def.id +
                                  "'");
    }
  }
  figures_.push_back(std::move(def));
}

const std::vector<FigureDef>& FigSet::figures() const { return figures_; }

const FigureDef& FigSet::find(const std::string& id) const {
  for (const auto& fig : figures_) {
    if (fig.id == id) return fig;
  }
  std::string known;
  for (const auto& fig : figures_) {
    if (!known.empty()) known += ", ";
    known += fig.id;
  }
  throw std::runtime_error("FigSet: unknown figure '" + id +
                           "' (registered: " + known + ")");
}

std::vector<const FigureDef*> FigSet::select(const std::string& only,
                                             const std::string& tag) const {
  std::vector<const FigureDef*> out;
  for (const auto& fig : figures_) {
    if (!only.empty() && !glob_match(only, fig.id)) continue;
    if (!tag.empty() &&
        std::find(fig.tags.begin(), fig.tags.end(), tag) == fig.tags.end()) {
      continue;
    }
    out.push_back(&fig);
  }
  return out;
}

// --- glob matching ----------------------------------------------------------

bool glob_match(const std::string& pattern, const std::string& text) {
  constexpr std::size_t npos = std::string::npos;
  std::size_t p = 0, t = 0;
  std::size_t star_p = npos, star_t = 0;
  while (t < text.size()) {
    bool advanced = false;
    if (p < pattern.size()) {
      const char pc = pattern[p];
      if (pc == '*') {
        star_p = p++;
        star_t = t;
        continue;
      }
      if (pc == '?') {
        ++p;
        ++t;
        continue;
      }
      if (pc == '[') {
        // Character class: [abc], [a-z], negated [!...] / [^...]. A ']'
        // directly after the (possibly negated) opening bracket is a
        // literal member.
        std::size_t q = p + 1;
        bool negate = false;
        if (q < pattern.size() &&
            (pattern[q] == '!' || pattern[q] == '^')) {
          negate = true;
          ++q;
        }
        const std::size_t start = q;
        bool matched = false;
        std::size_t close = npos;
        while (q < pattern.size()) {
          if (pattern[q] == ']' && q > start) {
            close = q;
            break;
          }
          if (q + 2 < pattern.size() && pattern[q + 1] == '-' &&
              pattern[q + 2] != ']') {
            if (text[t] >= pattern[q] && text[t] <= pattern[q + 2]) {
              matched = true;
            }
            q += 3;
          } else {
            if (text[t] == pattern[q]) matched = true;
            ++q;
          }
        }
        if (close != npos) {
          if (matched != negate) {
            p = close + 1;
            ++t;
            advanced = true;
          }
        } else if (text[t] == '[') {  // unclosed: treat '[' literally
          ++p;
          ++t;
          advanced = true;
        }
      } else if (pc == text[t]) {
        ++p;
        ++t;
        advanced = true;
      }
    }
    if (advanced) continue;
    if (star_p != npos) {  // backtrack: let the last '*' eat one more char
      p = star_p + 1;
      t = ++star_t;
      continue;
    }
    return false;
  }
  while (p < pattern.size() && pattern[p] == '*') ++p;
  return p == pattern.size();
}

std::pair<std::size_t, std::size_t> parse_shard_spec(
    const std::string& spec) {
  const std::size_t slash = spec.find('/');
  std::size_t index = 0, count = 0;
  if (slash == std::string::npos ||
      !util::parse_size_t(std::string_view(spec).substr(0, slash), index) ||
      !util::parse_size_t(std::string_view(spec).substr(slash + 1), count)) {
    throw std::runtime_error("--shard expects I/N (e.g. 0/4), got '" + spec +
                             "'");
  }
  if (count == 0 || index >= count) {
    throw std::runtime_error("--shard index " + std::to_string(index) +
                             " out of range for count " +
                             std::to_string(count));
  }
  return {index, count};
}

// --- shard merging ----------------------------------------------------------

namespace {

void write_merged(const std::filesystem::path& out, const std::string& header,
                  const std::map<std::size_t, std::string>& lines) {
  if (out.has_parent_path()) {
    std::filesystem::create_directories(out.parent_path());
  }
  std::ofstream os(out, std::ios::binary | std::ios::trunc);
  if (!os) {
    throw std::runtime_error("merge: cannot open " + out.string() +
                             " for writing");
  }
  if (!header.empty()) os << header << '\n';
  for (const auto& [index, line] : lines) os << line << '\n';
}

}  // namespace

void merge_csv_shards(const std::vector<std::filesystem::path>& shards,
                      const std::filesystem::path& out) {
  if (shards.empty()) {
    throw std::runtime_error("merge: no shard files given");
  }
  std::string header;
  std::size_t columns = 0;
  std::map<std::size_t, std::string> lines;
  for (const auto& path : shards) {
    std::ifstream in(path, std::ios::binary);
    if (!in) {
      throw std::runtime_error("merge: cannot open " + path.string());
    }
    std::string line;
    bool first = true;
    while (std::getline(in, line)) {
      if (first) {
        first = false;
        if (header.empty()) {
          header = line;
          columns = util::parse_csv_line(header).size();
        } else if (line != header) {
          throw std::runtime_error("merge: header of " + path.string() +
                                   " does not match the first shard's");
        }
        continue;
      }
      if (line.empty()) continue;
      const auto cells = util::parse_csv_line(line);
      std::size_t index = 0;
      if (cells.size() != columns || cells.empty() ||
          !util::parse_size_t(cells[0], index)) {
        throw std::runtime_error("merge: unparseable row in " +
                                 path.string() + ": " + line);
      }
      if (!lines.emplace(index, line).second) {
        throw std::runtime_error(
            "merge: duplicate cell index " + std::to_string(index) + " in " +
            path.string() + " (shards must be disjoint)");
      }
    }
    if (first) {
      throw std::runtime_error("merge: " + path.string() +
                               " is empty (no header)");
    }
  }
  write_merged(out, header, lines);
}

void merge_jsonl_shards(const std::vector<std::filesystem::path>& shards,
                        const std::filesystem::path& out) {
  if (shards.empty()) {
    throw std::runtime_error("merge: no shard files given");
  }
  constexpr std::string_view kIndexKey = "\"index\":";
  std::map<std::size_t, std::string> lines;
  for (const auto& path : shards) {
    std::ifstream in(path, std::ios::binary);
    if (!in) {
      throw std::runtime_error("merge: cannot open " + path.string());
    }
    std::string line;
    while (std::getline(in, line)) {
      if (line.empty()) continue;
      const std::size_t at = line.find(kIndexKey);
      std::size_t digits = at == std::string::npos ? 0 : at + kIndexKey.size();
      std::size_t end = digits;
      while (end < line.size() && std::isdigit(line[end]) != 0) ++end;
      std::size_t index = 0;
      if (at == std::string::npos || end == digits ||
          !util::parse_size_t(
              std::string_view(line).substr(digits, end - digits), index)) {
        throw std::runtime_error("merge: line without \"index\" in " +
                                 path.string() + ": " + line);
      }
      if (!lines.emplace(index, line).second) {
        throw std::runtime_error(
            "merge: duplicate cell index " + std::to_string(index) + " in " +
            path.string() + " (shards must be disjoint)");
      }
    }
  }
  write_merged(out, "", lines);
}

// --- plot-script emission (figset plot) -------------------------------------

namespace {

/// True when `label` parses completely as a double (axis labels are
/// round-trip formatted numbers for numeric axes).
bool numeric_label(const std::string& label) {
  if (label.empty()) return false;
  char* end = nullptr;
  (void)std::strtod(label.c_str(), &end);
  return end != nullptr && *end == '\0';
}

/// What to draw for one figure, derived from its grid. Exactly one of
/// `x` (numeric line plot) / `cat` (labeled bars) is non-empty.
struct PlotPlan {
  std::string x;                    ///< numeric x column
  std::string cat;                  ///< categorical label column
  std::vector<std::string> series;  ///< scheduler labels (one line each)
  std::string y;
  std::string yerr;  ///< empty = no error bars (no ci column for y)
};

PlotPlan plan_plot(const FigureDef& fig, const Sweep& sweep) {
  PlotPlan plan;
  const bool efficiency =
      std::find(fig.tags.begin(), fig.tags.end(), "efficiency") !=
      fig.tags.end();
  plan.y = efficiency ? "efficiency_mean" : "makespan_mean";
  plan.yerr = efficiency ? "" : "makespan_ci95";

  const auto axes = sweep.axis_names();
  const auto cells = sweep.flatten();
  const auto labels_of = [&cells](const std::string& axis) {
    std::vector<std::string> out;  // first-seen order = job-list order
    for (const auto& cell : cells) {
      for (const auto& [name, label] : cell.coords) {
        if (name == axis &&
            std::find(out.begin(), out.end(), label) == out.end()) {
          out.push_back(label);
        }
      }
    }
    return out;
  };

  std::string x_axis;  // last non-scheduler axis (fastest-varying)
  for (const auto& axis : axes) {
    if (axis != "scheduler") x_axis = axis;
  }
  if (!x_axis.empty()) {
    const auto labels = labels_of(x_axis);
    const bool numeric =
        std::all_of(labels.begin(), labels.end(), numeric_label);
    (numeric ? plan.x : plan.cat) = x_axis;
  }
  if (plan.x.empty() && plan.cat.empty()) plan.cat = "scheduler";
  if (!plan.x.empty() &&
      std::find(axes.begin(), axes.end(), "scheduler") != axes.end()) {
    plan.series = labels_of("scheduler");
  }
  return plan;
}

void write_script_banner(std::ostream& os, const char* comment,
                         const FigureDef& fig, const char* runner) {
  os << comment << " " << fig.id << " — " << fig.number << ": " << fig.title
     << " (" << fig.paper_section << ")\n"
     << comment << " Generated by `figset plot`; regenerate rather than "
     << "editing.\n"
     << comment << " Usage: " << runner << " " << fig.id
     << (std::string(runner) == "gnuplot" ? ".gp" : ".py") << "   (reads "
     << fig.id << ".csv, writes " << fig.id << ".png)\n";
}

void write_gnuplot(std::ostream& os, const FigureDef& fig,
                   const PlotPlan& p) {
  write_script_banner(os, "#", fig, "gnuplot");
  const std::string csv = fig.id + ".csv";
  os << "set datafile separator ','\n"
     << "set key autotitle columnhead\n"  // also names columns for column()
     << "set key outside\n"
     << "set terminal pngcairo size 960,640\n"
     << "set output '" << fig.id << ".png'\n"
     << "set title \"" << fig.number << ": " << fig.title << "\"\n"
     << "set ylabel '" << p.y << "'\n";
  if (!p.x.empty()) {
    os << "set xlabel '" << p.x << "'\n";
    if (p.series.empty()) {
      if (!p.yerr.empty()) {
        os << "plot '" << csv << "' using (column('" << p.x
           << "')):(column('" << p.y << "')):(column('" << p.yerr
           << "')) with yerrorlines lw 2 title '" << p.y << "'\n";
      } else {
        os << "plot '" << csv << "' using (column('" << p.x
           << "')):(column('" << p.y << "')) with linespoints lw 2 title '"
           << p.y << "'\n";
      }
      return;
    }
    os << "plot \\\n";
    for (std::size_t i = 0; i < p.series.size(); ++i) {
      // Rows of other schedulers yield 1/0 (undefined) and are skipped.
      os << "  '" << csv << "' using (column('" << p.x
         << "')):(strcol('scheduler') eq '" << p.series[i] << "' ? column('"
         << p.y << "') : 1/0) with linespoints lw 2 title '" << p.series[i]
         << "'" << (i + 1 < p.series.size() ? ", \\\n" : "\n");
    }
    return;
  }
  os << "set xlabel '" << p.cat << "'\n"
     << "set style fill solid 0.6\n"
     << "set boxwidth 0.6\n"
     << "set xtics rotate by -30\n";
  if (!p.yerr.empty()) {
    os << "plot '" << csv << "' using 0:(column('" << p.y
       << "')):(column('" << p.yerr << "')):xtic(strcol('" << p.cat
       << "')) with boxerrorbars title '" << p.y << "'\n";
  } else {
    os << "plot '" << csv << "' using 0:(column('" << p.y
       << "')):xtic(strcol('" << p.cat << "')) with boxes title '" << p.y
       << "'\n";
  }
}

void write_matplotlib(std::ostream& os, const FigureDef& fig,
                      const PlotPlan& p) {
  os << "#!/usr/bin/env python3\n";
  write_script_banner(os, "#", fig, "python3");
  os << "import csv\n"
     << "import matplotlib\n"
     << "matplotlib.use('Agg')\n"
     << "import matplotlib.pyplot as plt\n"
     << "\n"
     << "with open('" << fig.id << ".csv', newline='') as f:\n"
     << "    rows = [row for row in csv.DictReader(f) if not row['error']]\n"
     << "\n"
     << "fig, ax = plt.subplots(figsize=(9.6, 6.4))\n";
  if (!p.x.empty()) {
    if (p.series.empty()) {
      os << "xs = [float(row['" << p.x << "']) for row in rows]\n"
         << "ys = [float(row['" << p.y << "']) for row in rows]\n";
      if (!p.yerr.empty()) {
        os << "es = [float(row['" << p.yerr << "']) for row in rows]\n"
           << "ax.errorbar(xs, ys, yerr=es, marker='o', capsize=3)\n";
      } else {
        os << "ax.plot(xs, ys, marker='o')\n";
      }
    } else {
      os << "for name in [";
      for (std::size_t i = 0; i < p.series.size(); ++i) {
        os << "'" << p.series[i] << "'"
           << (i + 1 < p.series.size() ? ", " : "");
      }
      os << "]:\n"
         << "    series = [row for row in rows if row['scheduler'] == name]\n"
         << "    xs = [float(row['" << p.x << "']) for row in series]\n"
         << "    ys = [float(row['" << p.y << "']) for row in series]\n"
         << "    ax.plot(xs, ys, marker='o', label=name)\n"
         << "ax.legend()\n";
    }
    os << "ax.set_xlabel('" << p.x << "')\n";
  } else {
    os << "labels = [row['" << p.cat << "'] for row in rows]\n"
       << "ys = [float(row['" << p.y << "']) for row in rows]\n";
    if (!p.yerr.empty()) {
      os << "es = [float(row['" << p.yerr << "']) for row in rows]\n"
         << "ax.bar(range(len(rows)), ys, yerr=es, capsize=3)\n";
    } else {
      os << "ax.bar(range(len(rows)), ys)\n";
    }
    os << "ax.set_xticks(range(len(rows)))\n"
       << "ax.set_xticklabels(labels, rotation=30, ha='right')\n"
       << "ax.set_xlabel('" << p.cat << "')\n";
  }
  os << "ax.set_ylabel('" << p.y << "')\n"
     << "ax.set_title(\"" << fig.number << ": " << fig.title << "\")\n"
     << "fig.savefig('" << fig.id << ".png', dpi=150)\n"
     << "print('wrote " << fig.id << ".png')\n";
}

}  // namespace

std::vector<std::filesystem::path> write_plot_scripts(
    const FigureDef& fig, const FigScale& scale,
    const std::filesystem::path& dir) {
  const Sweep sweep = fig.build(scale);
  const PlotPlan plan = plan_plot(fig, sweep);
  std::filesystem::create_directories(dir);
  const std::filesystem::path gp = dir / (fig.id + ".gp");
  const std::filesystem::path py = dir / (fig.id + ".py");
  for (const auto& [path, writer] :
       {std::pair<const std::filesystem::path*,
                  void (*)(std::ostream&, const FigureDef&, const PlotPlan&)>{
            &gp, &write_gnuplot},
        {&py, &write_matplotlib}}) {
    std::ofstream os(*path, std::ios::trunc);
    if (!os) {
      throw std::runtime_error("figset plot: cannot write " + path->string());
    }
    writer(os, fig, plan);
  }
  return {gp, py};
}

}  // namespace gasched::exp
