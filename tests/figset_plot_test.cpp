// figset plot smoke tests: the emitted gnuplot/matplotlib scripts must
// reference CSV columns strictly by name, and only names that actually
// appear in the CSV header CsvSink writes for that figure's sweep.

#include "exp/figset.hpp"

#include <filesystem>
#include <fstream>
#include <regex>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "exp/sweep.hpp"
#include "metrics/sink.hpp"

namespace fs = std::filesystem;
using namespace gasched;

namespace {

fs::path temp_dir(const std::string& name) {
  const fs::path dir = fs::temp_directory_path() / name;
  fs::remove_all(dir);
  fs::create_directories(dir);
  return dir;
}

std::string slurp(const fs::path& path) {
  std::ifstream in(path);
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

/// Every column name the script references: gnuplot `column('…')` and
/// `strcol('…')`, python `row['…']`.
std::set<std::string> referenced_columns(const std::string& text) {
  std::set<std::string> out;
  const std::regex pattern(
      R"((?:column|strcol)\('([^']*)'\)|row\['([^']*)'\])");
  for (std::sregex_iterator it(text.begin(), text.end(), pattern), end;
       it != end; ++it) {
    out.insert((*it)[1].matched ? (*it)[1].str() : (*it)[2].str());
  }
  return out;
}

/// The header of the CSV a `figset run` writes for this figure.
std::set<std::string> csv_header_columns(const exp::Sweep& sweep) {
  metrics::SweepHeader header;
  header.name = sweep.name();
  header.axes = sweep.axis_names();
  header.extra_columns = sweep.extra_column_names();
  const auto cols = metrics::csv_columns(header);
  return {cols.begin(), cols.end()};
}

}  // namespace

TEST(FigsetPlotTest, ScriptsReferenceOnlyCsvHeaderColumns) {
  const fs::path dir = temp_dir("gasched_figset_plot_test");
  for (const auto& fig : exp::FigSet::instance().figures()) {
    const auto paths =
        exp::write_plot_scripts(fig, fig.scale(/*full=*/false), dir);
    ASSERT_EQ(paths.size(), 2u) << fig.id;
    const auto allowed = csv_header_columns(fig.build(fig.scale(false)));
    for (const auto& path : paths) {
      ASSERT_TRUE(fs::exists(path)) << path;
      const std::string text = slurp(path);
      const auto referenced = referenced_columns(text);
      EXPECT_FALSE(referenced.empty())
          << path << " references no columns by name";
      for (const auto& column : referenced) {
        EXPECT_TRUE(allowed.count(column) > 0)
            << path << " references '" << column
            << "', which is not a column of " << fig.id << ".csv";
      }
      // Scripts must read the figure's CSV (by relative name) and render
      // the figure's PNG.
      EXPECT_NE(text.find(fig.id + ".csv"), std::string::npos) << path;
      EXPECT_NE(text.find(fig.id + ".png"), std::string::npos) << path;
    }
  }
  fs::remove_all(dir);
}

TEST(FigsetPlotTest, NumericAxisFiguresGetOneSeriesPerScheduler) {
  const fs::path dir = temp_dir("gasched_figset_plot_numeric");
  const auto& fig = exp::FigSet::instance().find("fig05");
  exp::write_plot_scripts(fig, fig.scale(false), dir);
  const std::string gp = slurp(dir / "fig05.gp");
  EXPECT_NE(gp.find("strcol('scheduler')"), std::string::npos);
  EXPECT_NE(gp.find("with linespoints"), std::string::npos);
  const std::string py = slurp(dir / "fig05.py");
  EXPECT_NE(py.find("row['scheduler'] == name"), std::string::npos);
  fs::remove_all(dir);
}

TEST(FigsetPlotTest, CategoricalFiguresGetLabeledBars) {
  const fs::path dir = temp_dir("gasched_figset_plot_bars");
  const auto& fig = exp::FigSet::instance().find("fig06");
  exp::write_plot_scripts(fig, fig.scale(false), dir);
  const std::string gp = slurp(dir / "fig06.gp");
  EXPECT_NE(gp.find("boxerrorbars"), std::string::npos);
  EXPECT_NE(gp.find("xtic(strcol('scheduler'))"), std::string::npos);
  const std::string py = slurp(dir / "fig06.py");
  EXPECT_NE(py.find("ax.bar("), std::string::npos);
  fs::remove_all(dir);
}

// Closes the loop behind ScriptsReferenceOnlyCsvHeaderColumns: the
// csv_columns vocabulary the test (and the plot emitter) use must be the
// actual header CsvSink writes, verified on a cheap custom-runner sweep
// with axes and extras.
TEST(FigsetPlotTest, CsvColumnsMatchesTheHeaderCsvSinkWrites) {
  exp::Sweep sweep("plot_header_probe");
  exp::Scenario base;
  base.name = "probe";
  base.replications = 1;
  sweep.base(base);
  sweep.axis("alpha", {exp::Sweep::Value{"a", {}}, exp::Sweep::Value{"b", {}}});
  sweep.extra_columns({"extra_one", "extra_two"});
  sweep.runner([](const exp::SweepCell& cell, bool) {
    exp::CellOutcome out;
    out.summary.scheduler = cell.coord("alpha");
    out.summary.replications = 1;
    out.extras = {{"extra_one", 1.0}, {"extra_two", 2.0}};
    return out;
  });

  const fs::path dir = temp_dir("gasched_figset_plot_header");
  const fs::path csv = dir / "probe.csv";
  metrics::CsvSink sink(csv);
  sweep.add_sink(sink).parallel(false).progress(false);
  sweep.run();

  std::ifstream in(csv);
  std::string header_line;
  ASSERT_TRUE(std::getline(in, header_line));

  metrics::SweepHeader header;
  header.name = sweep.name();
  header.axes = sweep.axis_names();
  header.extra_columns = sweep.extra_column_names();
  std::string expected;
  for (const auto& col : metrics::csv_columns(header)) {
    if (!expected.empty()) expected += ",";
    expected += col;
  }
  EXPECT_EQ(header_line, expected);
  fs::remove_all(dir);
}
