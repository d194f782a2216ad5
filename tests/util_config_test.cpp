// Tests for the INI-style configuration parser.

#include "util/config.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <stdexcept>
#include <string>

namespace gasched::util {
namespace {

TEST(Config, ParsesSectionsAndKeys) {
  const auto cfg = Config::parse(
      "top = 1\n"
      "[cluster]\n"
      "processors = 50\n"
      "rate_lo = 10.5\n"
      "[workload]\n"
      "dist = normal\n");
  EXPECT_EQ(cfg.get_int("top", 0), 1);
  EXPECT_EQ(cfg.get_int("cluster.processors", 0), 50);
  EXPECT_DOUBLE_EQ(cfg.get_double("cluster.rate_lo", 0.0), 10.5);
  EXPECT_EQ(cfg.get("workload.dist", ""), "normal");
  EXPECT_EQ(cfg.size(), 4u);
}

TEST(Config, GetSizeRejectsNegativeValuesNamingTheKey) {
  const auto cfg = Config::parse(
      "[cluster]\n"
      "processors = 12\n"
      "spares = -3\n");
  EXPECT_EQ(cfg.get_size("cluster.processors", 0), 12u);
  EXPECT_EQ(cfg.get_size("cluster.missing", SIZE_MAX), SIZE_MAX);
  try {
    cfg.get_size("cluster.spares", 0);
    FAIL() << "a negative size was accepted";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("cluster.spares"),
              std::string::npos)
        << e.what();
  }
}

TEST(Config, GetSizeAcceptsZeroAndTheLargestInt64) {
  const auto cfg = Config::parse(
      "[cluster]\n"
      "spares = 0\n"
      "huge = 9223372036854775807\n");
  // A present key wins over the fallback, even when it is zero.
  EXPECT_EQ(cfg.get_size("cluster.spares", 7), 0u);
  EXPECT_EQ(cfg.get_size("cluster.huge", 0),
            static_cast<std::size_t>(INT64_MAX));
}

TEST(Config, GetSizeRejectsNonIntegerTextNamingTheKey) {
  const auto cfg = Config::parse(
      "[cluster]\n"
      "fraction = 2.5\n"
      "word = twelve\n"
      "suffix = 12 procs\n"
      "overflow = 99999999999999999999\n");
  for (const std::string key : {"cluster.fraction", "cluster.word",
                                "cluster.suffix", "cluster.overflow"}) {
    try {
      cfg.get_size(key, 0);
      FAIL() << key << " was accepted";
    } catch (const std::runtime_error& e) {
      EXPECT_NE(std::string(e.what()).find(key), std::string::npos)
          << e.what();
    }
  }
}

TEST(Config, IgnoresCommentsAndBlankLines) {
  const auto cfg = Config::parse(
      "# comment\n"
      "\n"
      "; also comment\n"
      "key = value\n");
  EXPECT_EQ(cfg.size(), 1u);
  EXPECT_EQ(cfg.get("key", ""), "value");
}

TEST(Config, TrimsWhitespace) {
  const auto cfg = Config::parse("  key   =    spaced value  \n");
  EXPECT_EQ(cfg.get("key", ""), "spaced value");
}

TEST(Config, MissingKeysFallBack) {
  const auto cfg = Config::parse("a = 1\n");
  EXPECT_FALSE(cfg.has("b"));
  EXPECT_EQ(cfg.get("b", "dft"), "dft");
  EXPECT_EQ(cfg.get_int("b", 7), 7);
  EXPECT_DOUBLE_EQ(cfg.get_double("b", 2.5), 2.5);
  EXPECT_TRUE(cfg.get_bool("b", true));
}

TEST(Config, BooleanSpellings) {
  const auto cfg = Config::parse(
      "a = true\nb = 0\nc = yes\nd = off\n");
  EXPECT_TRUE(cfg.get_bool("a", false));
  EXPECT_FALSE(cfg.get_bool("b", true));
  EXPECT_TRUE(cfg.get_bool("c", false));
  EXPECT_FALSE(cfg.get_bool("d", true));
}

TEST(Config, ScientificNotation) {
  const auto cfg = Config::parse("v = 9e5\n");
  EXPECT_DOUBLE_EQ(cfg.get_double("v", 0.0), 9e5);
}

TEST(Config, MalformedLinesThrow) {
  EXPECT_THROW(Config::parse("not a key value\n"), std::runtime_error);
  EXPECT_THROW(Config::parse("[unclosed\n"), std::runtime_error);
  EXPECT_THROW(Config::parse("= novalue\n"), std::runtime_error);
}

TEST(Config, BadTypedValuesThrow) {
  const auto cfg = Config::parse("a = abc\nb = maybe\n");
  EXPECT_THROW(cfg.get_double("a", 0.0), std::runtime_error);
  EXPECT_THROW(cfg.get_int("a", 0), std::runtime_error);
  EXPECT_THROW(cfg.get_bool("b", false), std::runtime_error);
}

TEST(Config, LastDuplicateWins) {
  const auto cfg = Config::parse("a = 1\na = 2\n");
  EXPECT_EQ(cfg.get_int("a", 0), 2);
}

TEST(Config, LoadFromFileAndMissingFileThrows) {
  const auto path =
      std::filesystem::temp_directory_path() / "gasched_config_test.ini";
  {
    std::ofstream out(path);
    out << "[s]\nk = 42\n";
  }
  const auto cfg = Config::load(path);
  EXPECT_EQ(cfg.get_int("s.k", 0), 42);
  std::filesystem::remove(path);
  EXPECT_THROW(Config::load(path), std::runtime_error);
}

}  // namespace
}  // namespace gasched::util
