// Tests for the declarative sweep engine: deterministic flattening,
// thread-count-independent results (byte-identical CSV), per-cell error
// capture, streaming sink order, the [sweep] INI surface, shard
// partitioning, and resume (a killed-and-truncated CSV continues to a
// byte-identical file; a JSONL-only run continues to the same row set).

#include "exp/sweep.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <thread>

#include "exp/config_scenario.hpp"
#include "exp/registry.hpp"
#include "metrics/sink.hpp"
#include "util/config.hpp"

namespace gasched::exp {
namespace {

Scenario small_scenario() {
  Scenario s;
  s.name = "sweep-test";
  s.cluster = paper_cluster(10.0, 6);
  s.workload.dist = "uniform";
  s.workload.param_a = 10.0;
  s.workload.param_b = 500.0;
  s.workload.count = 60;
  s.seed = 20250401;
  s.replications = 3;
  return s;
}

SchedulerParams fast_params() {
  SchedulerParams o;
  o.set("batch_size", 30);
  o.set("max_generations", 10);
  o.set("population", 8);
  return o;
}

std::string read_file(const std::filesystem::path& p) {
  std::ifstream in(p, std::ios::binary);
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

/// Erases every "sched_wall_seconds":{...} summary (the only
/// non-deterministic content of a JSONL row). The summary object is
/// flat, so the first '}' closes it.
std::string strip_wall_clock(std::string text) {
  const std::string key = "\"sched_wall_seconds\":{";
  for (std::size_t pos = text.find(key); pos != std::string::npos;
       pos = text.find(key, pos)) {
    std::size_t end = text.find('}', pos) + 1;
    if (end < text.size() && text[end] == ',') ++end;
    text.erase(pos, end - pos);
  }
  return text;
}

struct TempFile {
  std::filesystem::path path;
  explicit TempFile(const std::string& name)
      : path(std::filesystem::temp_directory_path() /
             ("gasched_sweep_" + name)) {
    std::filesystem::remove(path);
  }
  ~TempFile() { std::filesystem::remove(path); }
};

TEST(SweepFlatten, RowMajorFirstAxisSlowest) {
  Sweep sweep("flatten");
  sweep.base(small_scenario());
  sweep.axis("procs", {4.0, 8.0},
             [](SweepCell& c, double v) {
               c.scenario.cluster.num_processors =
                   static_cast<std::size_t>(v);
             });
  sweep.schedulers({"EF", "RR", "MM"});
  const auto cells = sweep.flatten();
  ASSERT_EQ(cells.size(), 6u);
  ASSERT_EQ(sweep.cell_count(), 6u);
  EXPECT_EQ(sweep.axis_names(),
            (std::vector<std::string>{"procs", "scheduler"}));
  // procs varies slowest, scheduler fastest.
  EXPECT_EQ(cells[0].coord("procs"), "4");
  EXPECT_EQ(cells[0].scheduler, "EF");
  EXPECT_EQ(cells[1].scheduler, "RR");
  EXPECT_EQ(cells[2].scheduler, "MM");
  EXPECT_EQ(cells[3].coord("procs"), "8");
  EXPECT_EQ(cells[3].scheduler, "EF");
  EXPECT_EQ(cells[3].scenario.cluster.num_processors, 8u);
  EXPECT_EQ(cells[0].scenario.cluster.num_processors, 4u);
  EXPECT_DOUBLE_EQ(cells[5].coord_value("procs"), 8.0);
  EXPECT_EQ(cells[5].index, 5u);
}

TEST(SweepFlatten, SchedulerNamesResolveEagerly) {
  Sweep sweep("typo");
  EXPECT_THROW(sweep.schedulers({"NOPE"}), std::runtime_error);
  EXPECT_THROW(sweep.scheduler("NOPE"), std::runtime_error);
  // Case-insensitive resolution to canonical spelling.
  sweep.schedulers({"pn", "ef"});
  EXPECT_EQ(sweep.flatten()[0].scheduler, "PN");
}

TEST(SweepFlatten, DuplicateOrEmptyAxisRejected) {
  Sweep sweep("bad");
  sweep.axis("x", {1.0}, {});
  EXPECT_THROW(sweep.axis("x", {2.0}, {}), std::invalid_argument);
  EXPECT_THROW(sweep.axis("y", std::vector<Sweep::Value>{}),
               std::invalid_argument);
}

// The core determinism contract: the same grid, executed serially and on
// the pool, produces byte-identical CSV files.
TEST(SweepRun, CsvByteIdenticalAcrossThreadCounts) {
  TempFile serial_csv("serial.csv"), parallel_csv("parallel.csv");
  auto build = [&](bool parallel, const std::filesystem::path& path,
                   metrics::CsvSink& sink) {
    Sweep sweep("determinism");
    sweep.base(small_scenario());
    sweep.params(fast_params());
    sweep.axis("mean_comm_cost", {5.0, 20.0},
               [](SweepCell& c, double v) {
                 c.scenario.cluster.comm.mean_cost = v;
               });
    sweep.schedulers({"EF", "RR", "PN"});
    sweep.parallel(parallel);
    sweep.progress(false);
    sweep.add_sink(sink);
    return sweep.run();
  };
  metrics::CsvSink s1(serial_csv.path), s2(parallel_csv.path);
  const auto serial = build(false, serial_csv.path, s1);
  const auto parallel = build(true, parallel_csv.path, s2);

  ASSERT_EQ(serial.rows.size(), 6u);
  ASSERT_EQ(parallel.rows.size(), 6u);
  EXPECT_EQ(serial.failed, 0u);
  EXPECT_EQ(parallel.failed, 0u);
  for (std::size_t i = 0; i < serial.rows.size(); ++i) {
    EXPECT_DOUBLE_EQ(serial.rows[i].cell.makespan.mean,
                     parallel.rows[i].cell.makespan.mean)
        << "row " << i;
  }
  const std::string a = read_file(serial_csv.path);
  const std::string b = read_file(parallel_csv.path);
  ASSERT_FALSE(a.empty());
  EXPECT_EQ(a, b) << "CSV must not depend on the thread count";
}

TEST(SweepRun, PerCellErrorCaptureKeepsGridAlive) {
  Sweep sweep("errors");
  sweep.base(small_scenario());
  sweep.axis("i", {0.0, 1.0, 2.0, 3.0}, {});
  sweep.progress(false);
  sweep.runner([](const SweepCell& cell, bool) -> CellOutcome {
    if (cell.index == 1) throw std::runtime_error("cell exploded");
    CellOutcome out;
    out.summary.scheduler = "ok";
    return out;
  });
  const auto result = sweep.run();
  ASSERT_EQ(result.rows.size(), 4u);
  EXPECT_EQ(result.failed, 1u);
  EXPECT_FALSE(result.rows[1].ok());
  EXPECT_EQ(result.rows[1].error, "cell exploded");
  EXPECT_TRUE(result.rows[0].ok());
  EXPECT_TRUE(result.rows[3].ok());
}

TEST(SweepRun, UnknownSchedulerIsACellErrorNotACrash) {
  Sweep sweep("no-scheduler");
  sweep.base(small_scenario());
  sweep.axis("i", {0.0, 1.0}, {});
  sweep.progress(false);
  // No scheduler declared and no custom runner: the default runner
  // reports per-cell errors instead of aborting the grid.
  const auto result = sweep.run();
  EXPECT_EQ(result.failed, 2u);
  EXPECT_NE(result.rows[0].error.find("scheduler"), std::string::npos);
}

// Sinks observe rows in job-list order even when cells complete out of
// order, and the streaming CSV keeps completed prefixes on disk.
TEST(SweepRun, SinksReceiveRowsInJobOrder) {
  struct OrderSink final : metrics::ResultSink {
    std::vector<std::size_t> indices;
    void row(const metrics::SweepRow& r) override {
      indices.push_back(r.index);
    }
  } order;
  Sweep sweep("order");
  sweep.base(small_scenario());
  sweep.axis("i", {0.0, 1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0}, {});
  sweep.progress(false);
  sweep.add_sink(order);
  sweep.runner([](const SweepCell& cell, bool) {
    // Reverse the natural completion order a little.
    if (cell.index % 3 == 0) {
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
    return CellOutcome{};
  });
  sweep.run();
  ASSERT_EQ(order.indices.size(), 8u);
  for (std::size_t i = 0; i < order.indices.size(); ++i) {
    EXPECT_EQ(order.indices[i], i);
  }
}

TEST(SweepRun, ExtrasFlowToCsvAndResult) {
  TempFile csv("extras.csv");
  metrics::CsvSink sink(csv.path);
  Sweep sweep("extras");
  sweep.base(small_scenario());
  sweep.axis("x", {1.0, 2.0}, {});
  sweep.extra_columns({"doubled"});
  sweep.progress(false);
  sweep.add_sink(sink);
  sweep.runner([](const SweepCell& cell, bool) {
    CellOutcome out;
    out.extras = {{"doubled", 2.0 * cell.coord_value("x")}};
    return out;
  });
  const auto result = sweep.run();
  EXPECT_DOUBLE_EQ(result.rows[1].extra("doubled"), 4.0);
  const std::string text = read_file(csv.path);
  EXPECT_NE(text.find("doubled"), std::string::npos);
  EXPECT_NE(text.find(",4,"), std::string::npos);
}

TEST(SweepRun, WorkloadAxisPreservesCount) {
  Sweep sweep("workloads");
  sweep.base(small_scenario());
  WorkloadSpec uniform;
  uniform.dist = "uniform";
  WorkloadSpec pareto;
  pareto.dist = "pareto";
  sweep.workloads({{"uniform", uniform}, {"pareto", pareto}});
  const auto cells = sweep.flatten();
  ASSERT_EQ(cells.size(), 2u);
  EXPECT_EQ(cells[1].scenario.workload.dist, "pareto");
  EXPECT_EQ(cells[1].scenario.workload.count, 60u);
  EXPECT_EQ(cells[1].coord("workload"), "pareto");
}

// Sharding partitions the deterministic job list: the shards' executed
// sets are disjoint and their union is the full grid.
TEST(SweepShard, PartitionsJobListDisjointly) {
  auto build = [](Sweep& sweep) {
    sweep.base(small_scenario());
    sweep.axis("i", {0.0, 1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0}, {});
    sweep.progress(false);
    sweep.runner([](const SweepCell&, bool) { return CellOutcome{}; });
  };
  std::set<std::size_t> executed;
  for (std::size_t shard = 0; shard < 3; ++shard) {
    Sweep sweep("shard");
    build(sweep);
    sweep.shard(shard, 3);
    const auto result = sweep.run();
    ASSERT_EQ(result.rows.size(), 8u);
    for (const auto& row : result.rows) {
      if (row.skipped) continue;
      EXPECT_TRUE(executed.insert(row.index).second)
          << "cell " << row.index << " ran in two shards";
      EXPECT_EQ(row.index % 3, shard);
    }
    // Cells i with i % 3 == shard: 3 for shards 0 and 1, 2 for shard 2.
    const std::size_t expected = shard < 2 ? 3u : 2u;
    EXPECT_EQ(result.rows.size() - result.skipped, expected);
  }
  EXPECT_EQ(executed.size(), 8u);
  Sweep bad("bad");
  EXPECT_THROW(bad.shard(2, 2), std::invalid_argument);
  EXPECT_THROW(bad.shard(0, 0), std::invalid_argument);
}

// Skipped (off-shard) rows are never delivered to sinks, and the rows a
// shard does deliver keep job-list order.
TEST(SweepShard, SinksSeeOnlyOwnedRowsInOrder) {
  struct OrderSink final : metrics::ResultSink {
    std::vector<std::size_t> indices;
    void row(const metrics::SweepRow& r) override {
      indices.push_back(r.index);
    }
  } order;
  Sweep sweep("shard-sink");
  sweep.base(small_scenario());
  sweep.axis("i", {0.0, 1.0, 2.0, 3.0, 4.0, 5.0, 6.0}, {});
  sweep.progress(false);
  sweep.shard(1, 2);
  sweep.add_sink(order);
  sweep.runner([](const SweepCell&, bool) { return CellOutcome{}; });
  const auto result = sweep.run();
  EXPECT_EQ(order.indices, (std::vector<std::size_t>{1, 3, 5}));
  EXPECT_EQ(result.skipped, 4u);
}

// The resume contract from the ISSUE: kill a run part-way (here:
// truncate its CSV mid-row), resume, and the final file is
// byte-identical to an uninterrupted run.
TEST(SweepResume, TruncatedCsvResumesToByteIdenticalFile) {
  TempFile full_csv("resume_full.csv"), killed_csv("resume_killed.csv");
  auto build = [&](Sweep& sweep) {
    sweep.base(small_scenario());
    sweep.params(fast_params());
    sweep.axis("mean_comm_cost", {5.0, 20.0},
               [](SweepCell& c, double v) {
                 c.scenario.cluster.comm.mean_cost = v;
               });
    sweep.schedulers({"EF", "RR", "PN"});
    sweep.progress(false);
  };

  {
    metrics::CsvSink sink(full_csv.path);
    Sweep sweep("resume");
    build(sweep);
    sweep.add_sink(sink);
    ASSERT_EQ(sweep.run().failed, 0u);
  }
  const std::string complete = read_file(full_csv.path);
  ASSERT_FALSE(complete.empty());

  // Simulate the kill: keep the header + 3 complete rows + a torn 4th.
  std::size_t nl = 0, offset = 0;
  for (std::size_t i = 0; i < complete.size(); ++i) {
    if (complete[i] == '\n' && ++nl == 4) {
      offset = i + 1;
      break;
    }
  }
  ASSERT_GT(offset, 0u);
  {
    std::ofstream out(killed_csv.path, std::ios::binary | std::ios::trunc);
    out << complete.substr(0, offset + 7);  // 7 bytes of the torn row
  }

  metrics::CsvSink sink(killed_csv.path, metrics::SinkMode::kResume);
  Sweep sweep("resume");
  build(sweep);
  sweep.add_sink(sink);
  const auto result = sweep.run();
  EXPECT_EQ(result.skipped, 3u);  // the three complete data rows
  EXPECT_EQ(result.failed, 0u);
  EXPECT_EQ(read_file(killed_csv.path), complete)
      << "resumed CSV must be byte-identical to an uninterrupted run";
}

// Resuming an already-complete file executes nothing and changes no
// bytes.
TEST(SweepResume, CompleteFileSkipsEveryCell) {
  TempFile csv("resume_done.csv");
  auto build = [&](Sweep& sweep) {
    sweep.base(small_scenario());
    sweep.axis("i", {0.0, 1.0, 2.0}, {});
    sweep.progress(false);
    sweep.runner([](const SweepCell&, bool) { return CellOutcome{}; });
  };
  {
    metrics::CsvSink sink(csv.path);
    Sweep sweep("done");
    build(sweep);
    sweep.add_sink(sink);
    sweep.run();
  }
  const std::string before = read_file(csv.path);
  metrics::CsvSink sink(csv.path, metrics::SinkMode::kResume);
  Sweep sweep("done");
  build(sweep);
  sweep.add_sink(sink);
  const auto result = sweep.run();
  EXPECT_EQ(result.skipped, 3u);
  EXPECT_EQ(read_file(csv.path), before);
}

// A resumable sink only skips cells present in EVERY non-passive sink:
// attaching a fresh JSONL sink to a resumed CSV re-runs everything (the
// CSV drops the duplicate rows itself and keeps its bytes).
TEST(SweepResume, FreshSecondSinkForcesFullExecution) {
  TempFile csv("resume_two.csv"), jsonl("resume_two.jsonl");
  auto build = [&](Sweep& sweep) {
    sweep.base(small_scenario());
    sweep.axis("i", {0.0, 1.0, 2.0, 3.0}, {});
    sweep.progress(false);
    sweep.runner([](const SweepCell&, bool) { return CellOutcome{}; });
  };
  {
    metrics::CsvSink sink(csv.path);
    Sweep sweep("two-sinks");
    build(sweep);
    sweep.add_sink(sink);
    sweep.run();
  }
  const std::string before = read_file(csv.path);

  metrics::CsvSink resumed(csv.path, metrics::SinkMode::kResume);
  metrics::JsonlSink fresh(jsonl.path);  // kTruncate: holds nothing
  Sweep sweep("two-sinks");
  build(sweep);
  sweep.add_sink(resumed).add_sink(fresh);
  const auto result = sweep.run();
  EXPECT_EQ(result.skipped, 0u) << "fresh sink must force re-execution";
  EXPECT_EQ(read_file(csv.path), before) << "CSV drops duplicates";
  std::ifstream in(jsonl.path);
  std::string line;
  std::size_t lines = 0;
  while (std::getline(in, line)) lines += line.empty() ? 0 : 1;
  EXPECT_EQ(lines, 4u) << "fresh JSONL receives every row";
}

// Failed cells are not sealed into a resumed file: the scan stops its
// valid prefix at the first error row, so the resume retries the failed
// cell (and everything after it) instead of reporting success over a
// CSV that permanently contains the failure.
TEST(SweepResume, RetriesFailedCellsInsteadOfSkippingThem) {
  TempFile csv("resume_retry.csv");
  auto build = [&](Sweep& sweep, bool fail_cell_1) {
    sweep.base(small_scenario());
    sweep.axis("i", {0.0, 1.0, 2.0}, {});
    sweep.progress(false);
    sweep.runner([fail_cell_1](const SweepCell& cell, bool) -> CellOutcome {
      if (fail_cell_1 && cell.index == 1) {
        throw std::runtime_error("transient\nfailure");  // multi-line text
      }
      return CellOutcome{};
    });
  };
  {
    metrics::CsvSink sink(csv.path);
    Sweep sweep("retry");
    build(sweep, /*fail_cell_1=*/true);
    sweep.add_sink(sink);
    EXPECT_EQ(sweep.run().failed, 1u);
  }
  // The error text is flattened to one physical line (the invariant the
  // resume scanner and shard merger read by).
  EXPECT_NE(read_file(csv.path).find("transient failure"),
            std::string::npos);

  metrics::CsvSink sink(csv.path, metrics::SinkMode::kResume);
  Sweep sweep("retry");
  build(sweep, /*fail_cell_1=*/false);  // the failure was transient
  sweep.add_sink(sink);
  const auto result = sweep.run();
  EXPECT_EQ(result.skipped, 1u) << "only the pre-failure prefix skips";
  EXPECT_EQ(result.failed, 0u);
  const std::string text = read_file(csv.path);
  EXPECT_EQ(text.find("transient"), std::string::npos)
      << "the repaired file must not retain the old error row";
  // Header + the three data rows, all present exactly once.
  std::size_t lines = 0;
  for (const char c : text) lines += c == '\n' ? 1 : 0;
  EXPECT_EQ(lines, 4u);
}

// A resume against a file with a different schema must fail loudly, not
// silently mix two experiments in one file.
TEST(SweepResume, SchemaMismatchThrows) {
  TempFile csv("resume_schema.csv");
  {
    std::ofstream out(csv.path);
    out << "index,other_axis,scheduler,foo\n0,1,EF,2\n";
  }
  metrics::CsvSink sink(csv.path, metrics::SinkMode::kResume);
  Sweep sweep("schema");
  sweep.base(small_scenario());
  sweep.axis("i", {0.0, 1.0}, {});
  sweep.progress(false);
  sweep.add_sink(sink);
  sweep.runner([](const SweepCell&, bool) { return CellOutcome{}; });
  EXPECT_THROW(sweep.run(), std::runtime_error);
}

// The JSONL-only path: a run writing only a JSONL sink (a bench invoked
// with --json but no --csv) must survive a kill too. JSONL rows carry
// wall-clock numbers, so the resumed file is not byte-identical to an
// uninterrupted run — but the kept prefix is preserved byte-for-byte
// and the whole file matches once the wall-clock summaries are
// stripped.
TEST(SweepResume, JsonlOnlySinkResumesTornFile) {
  TempFile full("resume_jsonl_full.jsonl");
  TempFile killed("resume_jsonl_killed.jsonl");
  auto build = [&](Sweep& sweep) {
    sweep.base(small_scenario());
    sweep.params(fast_params());
    sweep.axis("mean_comm_cost", {5.0, 20.0},
               [](SweepCell& c, double v) {
                 c.scenario.cluster.comm.mean_cost = v;
               });
    sweep.schedulers({"EF", "RR", "PN"});
    sweep.progress(false);
  };

  {
    metrics::JsonlSink sink(full.path);
    Sweep sweep("resume-jsonl");
    build(sweep);
    sweep.add_sink(sink);
    ASSERT_EQ(sweep.run().failed, 0u);
  }
  const std::string complete = read_file(full.path);
  ASSERT_FALSE(complete.empty());

  // Simulate the kill: keep 3 complete rows plus a torn 4th.
  std::size_t nl = 0, offset = 0;
  for (std::size_t i = 0; i < complete.size(); ++i) {
    if (complete[i] == '\n' && ++nl == 3) {
      offset = i + 1;
      break;
    }
  }
  ASSERT_GT(offset, 0u);
  {
    std::ofstream out(killed.path, std::ios::binary | std::ios::trunc);
    out << complete.substr(0, offset + 9);  // 9 bytes of the torn row
  }

  metrics::JsonlSink sink(killed.path, metrics::SinkMode::kResume);
  Sweep sweep("resume-jsonl");
  build(sweep);
  sweep.add_sink(sink);
  const auto result = sweep.run();
  EXPECT_EQ(result.skipped, 3u);  // the three complete rows
  EXPECT_EQ(result.failed, 0u);

  const std::string resumed = read_file(killed.path);
  EXPECT_EQ(resumed.substr(0, offset), complete.substr(0, offset))
      << "the kept prefix must be preserved byte-for-byte";
  EXPECT_EQ(strip_wall_clock(resumed), strip_wall_clock(complete))
      << "resumed JSONL must match an uninterrupted run everywhere "
         "except the wall-clock summaries";
}

TEST(SchedulerSelector, TagsNamesAllAndDedup) {
  const auto paper = expand_scheduler_selector("paper");
  EXPECT_EQ(paper, all_schedulers());
  const auto all = expand_scheduler_selector("all");
  EXPECT_EQ(all, SchedulerRegistry::instance().names());
  // Mixed tag + name, case-insensitive, deduplicated.
  const auto mixed = expand_scheduler_selector("metaheuristic,rr,PN");
  const auto meta = metaheuristic_schedulers();
  ASSERT_EQ(mixed.size(), meta.size() + 1);
  EXPECT_EQ(mixed.back(), "RR");
  // Empty selector = the paper's seven.
  EXPECT_EQ(expand_scheduler_selector(""), all_schedulers());
  EXPECT_THROW(expand_scheduler_selector("nope"), std::runtime_error);
}

TEST(SweepConfig, SweepSectionBuildsGrid) {
  const util::Config cfg = util::Config::parse(R"(
[scenario]
name = grid
seed = 7
replications = 2

[workload]
dist = uniform
param_a = 10
param_b = 200
count = 40

[sweep]
schedulers = EF,RR
procs = 4, 8
population = 10, 20
)");
  Sweep sweep = sweep_from_config(cfg);
  EXPECT_EQ(sweep.name(), "grid");
  // 2 procs x 2 population x 2 schedulers; scheduler axis innermost.
  EXPECT_EQ(sweep.cell_count(), 8u);
  const auto axes = sweep.axis_names();
  ASSERT_EQ(axes.size(), 3u);
  EXPECT_EQ(axes.back(), "scheduler");
  const auto cells = sweep.flatten();
  EXPECT_EQ(cells[0].scheduler, "EF");
  EXPECT_EQ(cells[1].scheduler, "RR");
  // procs is a scenario axis; population falls through to [scheduler]
  // params.
  EXPECT_EQ(cells[0].scenario.cluster.num_processors, 4u);
  EXPECT_EQ(cells.back().scenario.cluster.num_processors, 8u);
  EXPECT_EQ(cells[0].params.get_size("population", 0), 10u);
  EXPECT_EQ(cells.back().params.get_size("population", 0), 20u);
}

TEST(SweepConfig, OverrideReplacesConfigSchedulers) {
  const util::Config cfg = util::Config::parse(R"(
[sweep]
schedulers = EF
)");
  Sweep sweep = sweep_from_config(cfg, "MM,MX");
  const auto cells = sweep.flatten();
  ASSERT_EQ(cells.size(), 2u);
  EXPECT_EQ(cells[0].scheduler, "MM");
  EXPECT_EQ(cells[1].scheduler, "MX");
}

TEST(SweepConfig, NonNumericAxisValueThrows) {
  const util::Config cfg = util::Config::parse(R"(
[sweep]
procs = 4, banana
)");
  EXPECT_THROW(sweep_from_config(cfg), std::runtime_error);
}

TEST(SweepConfig, EmptyAxisItemThrowsNamingTheKey) {
  // "4,,8" used to skip the empty item and run a two-value axis.
  for (const char* list : {"4,,8", "4, 8,"}) {
    try {
      sweep_from_config(
          util::Config::parse(std::string("[sweep]\nprocs = ") + list));
      FAIL() << list << " was accepted";
    } catch (const std::runtime_error& e) {
      EXPECT_NE(std::string(e.what()).find("sweep.procs"), std::string::npos)
          << e.what();
    }
  }
}

TEST(SweepConfig, CountAxesTakeOnlyPositiveIntegers) {
  // Each value is cast to std::size_t; for most of these that cast is
  // undefined, and a zero count makes a run with nothing to show.
  for (const std::string key : {"procs", "tasks", "replications"}) {
    for (const std::string token :
         {"-1", "2.5", "nan", "inf", "1e300", "0", "0.0"}) {
      const util::Config cfg =
          util::Config::parse("[sweep]\n" + key + " = 4, " + token + "\n");
      try {
        sweep_from_config(cfg);
        FAIL() << key << " = " << token << " was accepted";
      } catch (const std::runtime_error& e) {
        const std::string msg = e.what();
        EXPECT_NE(msg.find("sweep config: key '" + key + "'"),
                  std::string::npos)
            << msg;
        EXPECT_NE(msg.find("'" + token + "'"), std::string::npos) << msg;
      }
    }
  }
  // Other scenario axes are real-valued, and integral counts still pass.
  EXPECT_NO_THROW(sweep_from_config(util::Config::parse(
      "[sweep]\nprocs = 1, 4\ncomm_nu = -0.5, 2.5\n")));
}

TEST(SweepConfig, CountAxesSetIntegralValuesOnEveryCell) {
  const util::Config cfg = util::Config::parse(R"(
[sweep]
schedulers = EF
procs = 1, 4
tasks = 1e2
replications = 3.0
)");
  const auto cells = sweep_from_config(cfg).flatten();
  ASSERT_EQ(cells.size(), 2u);
  EXPECT_EQ(cells[0].scenario.cluster.num_processors, 1u);
  EXPECT_EQ(cells[1].scenario.cluster.num_processors, 4u);
  for (const auto& c : cells) {
    EXPECT_EQ(c.scenario.workload.count, 100u);
    EXPECT_EQ(c.scenario.replications, 3u);
  }
}

TEST(SweepConfig, CountAxesStopJustBelowTwoToTheSixtyFour) {
  // 2^64 itself does not fit a std::size_t; the double just below does.
  try {
    sweep_from_config(util::Config::parse(
        "[sweep]\ntasks = 18446744073709551616\n"));
    FAIL() << "tasks = 2^64 was accepted";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("'18446744073709551616'"),
              std::string::npos)
        << e.what();
  }
  const auto cells = sweep_from_config(util::Config::parse(
                         "[sweep]\nschedulers = EF\n"
                         "tasks = 18446744073709549568\n"))
                         .flatten();
  ASSERT_EQ(cells.size(), 1u);
  EXPECT_EQ(cells[0].scenario.workload.count,
            std::size_t{18446744073709549568u});
}

TEST(SweepConfig, RealValuedScenarioAxesKeepNegativeAndFractionalValues) {
  const auto cells = sweep_from_config(util::Config::parse(R"(
[sweep]
schedulers = EF
comm_nu = -0.5, 2.5
mean_comm_cost = 1e300
)"))
                         .flatten();
  ASSERT_EQ(cells.size(), 2u);
  EXPECT_EQ(cells[0].scenario.comm_nu, -0.5);
  EXPECT_EQ(cells[1].scenario.comm_nu, 2.5);
  for (const auto& c : cells) {
    EXPECT_EQ(c.scenario.cluster.comm.mean_cost, 1e300);
  }
}

// End-to-end: a config-driven grid actually runs and streams JSONL.
TEST(SweepConfig, ConfigGridRunsEndToEnd) {
  TempFile jsonl("grid.jsonl");
  const util::Config cfg = util::Config::parse(R"(
[scenario]
replications = 2

[workload]
dist = uniform
param_a = 10
param_b = 200
count = 40

[cluster]
processors = 5

[scheduler]
max_generations = 8
population = 8
batch_size = 20

[sweep]
schedulers = EF,PN
mean_comm_cost = 2, 10
)");
  Sweep sweep = sweep_from_config(cfg);
  metrics::JsonlSink sink(jsonl.path);
  sweep.add_sink(sink).progress(false);
  const auto result = sweep.run();
  EXPECT_EQ(result.failed, 0u);
  ASSERT_EQ(result.rows.size(), 4u);
  for (const auto& row : result.rows) {
    EXPECT_EQ(row.cell.replications, 2u);
    EXPECT_GT(row.cell.makespan.mean, 0.0);
  }
  // JSONL: one object per row.
  std::ifstream in(jsonl.path);
  std::string line;
  std::size_t lines = 0;
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    ++lines;
    EXPECT_EQ(line.front(), '{');
    EXPECT_EQ(line.back(), '}');
  }
  EXPECT_EQ(lines, 4u);
}

}  // namespace
}  // namespace gasched::exp
