// Tests for the JSON writer (util/json.hpp) and the cell JSON the JSONL
// sink writes (metrics/report_json.hpp).

#include "util/json.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <string>

#include "metrics/report_json.hpp"

namespace gasched::util {
namespace {

TEST(JsonEscape, PassesPlainTextThrough) {
  EXPECT_EQ(json_escape("hello world"), "hello world");
}

TEST(JsonEscape, EscapesQuotesBackslashesAndControls) {
  EXPECT_EQ(json_escape("a\"b"), "a\\\"b");
  EXPECT_EQ(json_escape("a\\b"), "a\\\\b");
  EXPECT_EQ(json_escape("a\nb\tc"), "a\\nb\\tc");
  EXPECT_EQ(json_escape(std::string(1, '\x01')), "\\u0001");
}

TEST(JsonNumber, FiniteRoundTripsNonFiniteIsNull) {
  EXPECT_EQ(json_number(0.5), "0.5");
  EXPECT_EQ(json_number(1.0 / 0.0), "null");
  EXPECT_EQ(json_number(std::nan("")), "null");
  // 17 significant digits round-trip doubles exactly.
  const double v = 0.1 + 0.2;
  EXPECT_EQ(std::stod(json_number(v)), v);
}

TEST(JsonWriter, BuildsNestedDocument) {
  JsonWriter w;
  w.begin_object();
  w.key("name").string("gasched");
  w.key("n").number(std::int64_t{3});
  w.key("ok").boolean(true);
  w.key("none").null();
  w.key("xs").begin_array().number(1.5).number(2.5).end_array();
  w.key("inner").begin_object().key("a").number(std::int64_t{1}).end_object();
  w.end_object();
  EXPECT_EQ(w.str(),
            "{\"name\":\"gasched\",\"n\":3,\"ok\":true,\"none\":null,"
            "\"xs\":[1.5,2.5],\"inner\":{\"a\":1}}");
}

TEST(JsonWriter, TopLevelScalarIsValid) {
  JsonWriter w;
  w.number(42.0);
  EXPECT_EQ(w.str(), "42");
}

TEST(JsonWriter, RejectsMisuse) {
  {
    JsonWriter w;
    w.begin_object();
    EXPECT_THROW(w.number(1.0), std::logic_error);  // value without key
  }
  {
    JsonWriter w;
    w.begin_array();
    EXPECT_THROW(w.key("k"), std::logic_error);  // key inside array
  }
  {
    JsonWriter w;
    w.begin_object();
    EXPECT_THROW(w.end_array(), std::logic_error);  // mismatched close
  }
  {
    JsonWriter w;
    w.begin_array();
    EXPECT_THROW(w.str(), std::logic_error);  // unclosed container
  }
  {
    JsonWriter w;
    w.number(1.0);
    EXPECT_THROW(w.number(2.0), std::logic_error);  // two documents
  }
}

TEST(ReportJson, CellsSerialiseInsideAWriter) {
  metrics::CellSummary cell;
  cell.scheduler = "PN";
  cell.replications = 3;
  cell.makespan.count = 3;
  cell.makespan.mean = 123.5;
  cell.makespan.ci95 = 4.5;

  // Embedded the way the JSONL sink embeds a cell in its row object.
  JsonWriter w;
  w.begin_object();
  w.key("experiment").string("fig05");
  w.key("cells").begin_array();
  metrics::write_cell_json(w, cell);
  metrics::write_cell_json(w, cell);
  w.end_array();
  w.end_object();
  const std::string doc = w.str();
  EXPECT_NE(doc.find("\"experiment\":\"fig05\""), std::string::npos);
  EXPECT_NE(doc.find("\"scheduler\":\"PN\""), std::string::npos);
  EXPECT_NE(doc.find("\"mean\":123.5"), std::string::npos);
  // Two cells in the array.
  std::size_t n = 0;
  for (std::size_t pos = 0;
       (pos = doc.find("\"scheduler\"", pos)) != std::string::npos; ++pos) {
    ++n;
  }
  EXPECT_EQ(n, 2u);
}

TEST(ReportJson, CellCarriesEverySummary) {
  metrics::CellSummary cell;
  cell.scheduler = "EF";
  JsonWriter w;
  metrics::write_cell_json(w, cell);
  const std::string js = w.str();
  EXPECT_EQ(js.front(), '{');
  EXPECT_EQ(js.back(), '}');
  for (const char* key :
       {"\"scheduler\":\"EF\"", "\"replications\":", "\"makespan\":{",
        "\"efficiency\":{", "\"sched_wall_seconds\":{",
        "\"mean_response_time\":{", "\"scheduler_invocations\":{",
        "\"tasks_requeued\":{"}) {
    EXPECT_NE(js.find(key), std::string::npos) << key;
  }
}

}  // namespace
}  // namespace gasched::util
