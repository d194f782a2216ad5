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

TEST(Config, RejectsLeadingPlusHexAndTrailingTextNamingTheKey) {
  // Each of these used to read as a number: stod/stoll took "+5" and
  // "0x10" (hex for a double), so an INI key and a flag disagreed.
  const auto cfg = Config::parse(
      "[s]\nplus = +5\nhex = 0x10\nneg = -1\nword = ture\n");
  for (const std::string key : {"s.plus", "s.hex"}) {
    for (const auto& get : {+[](const Config& c, const std::string& k) {
                              (void)c.get_int(k, 0);
                            },
                            +[](const Config& c, const std::string& k) {
                              (void)c.get_double(k, 0.0);
                            },
                            +[](const Config& c, const std::string& k) {
                              (void)c.get_size(k, 0);
                            }}) {
      try {
        get(cfg, key);
        ADD_FAILURE() << key << " was accepted";
      } catch (const std::runtime_error& e) {
        EXPECT_NE(std::string(e.what()).find(key), std::string::npos)
            << e.what();
      }
    }
  }
  EXPECT_EQ(cfg.get_int("s.neg", 0), -1);
  EXPECT_THROW(cfg.get_size("s.neg", 0), std::runtime_error);
  EXPECT_THROW(cfg.get_bool("s.word", false), std::runtime_error);
}

TEST(Config, GetSizeReadsTheWholeUnsigned64BitRange) {
  const auto cfg = Config::parse("max = 18446744073709551615\n");
  EXPECT_EQ(cfg.get_size("max", 0), 18446744073709551615u);
}

TEST(Config, SectionViewStripsThePrefixAndKeepsOtherSectionsOut) {
  const auto cfg = Config::parse(
      "[scheduler]\nbatch_size = 77\n[scheduler2]\nbatch_size = 5\n"
      "[workload]\ncount = 9\n");
  const Config view = cfg.section("scheduler");
  EXPECT_EQ(view.size(), 1u);
  EXPECT_EQ(view.get_size("batch_size", 0), 77u);
  EXPECT_FALSE(view.has("scheduler.batch_size"));
  EXPECT_EQ(cfg.section("missing").size(), 0u);
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
