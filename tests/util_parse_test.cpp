// Tests for the one reader of typed text values (util/parse.hpp) and for
// the surfaces that use it: an INI key, a [section] parameter view and a
// command-line flag must accept and reject the same texts, with the same
// bits.

#include "util/parse.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "exp/config_scenario.hpp"
#include "util/cli.hpp"
#include "util/config.hpp"

namespace gasched::util {
namespace {

TEST(Parse, CountIsDecimalDigitsOnly) {
  EXPECT_EQ(parse_count("0"), 0u);
  EXPECT_EQ(parse_count(" 7\t"), 7u);
  EXPECT_EQ(parse_count("18446744073709551615"),
            std::numeric_limits<std::uint64_t>::max());
  for (const char* bad : {"", " ", "-1", "+5", "0x10", "12x", "1.5", "1e3",
                          "18446744073709551616", "1 2", "true"}) {
    EXPECT_FALSE(parse_count(bad).has_value()) << "'" << bad << "'";
  }
}

TEST(Parse, IntTakesAnOptionalMinus) {
  EXPECT_EQ(parse_int("-5"), -5);
  EXPECT_EQ(parse_int("9223372036854775807"),
            std::numeric_limits<std::int64_t>::max());
  EXPECT_EQ(parse_int("-9223372036854775808"),
            std::numeric_limits<std::int64_t>::min());
  for (const char* bad : {"", "+5", "0x10", "--1", "5-", "9223372036854775808",
                          "2.0"}) {
    EXPECT_FALSE(parse_int(bad).has_value()) << "'" << bad << "'";
  }
}

TEST(Parse, DoubleMatchesStrtodOnEveryAcceptedText) {
  // The values the shipped configs and figure grids use, plus awkward
  // ones: the reader must round exactly as the C library does, so no
  // figure input moves by a bit.
  for (const char* text :
       {"0", "-2", "0.5", "1000", "9e5", "2e4", "1e-3", "0.1", "0.25", "0.3",
        "10.5", "3.141592653589793", "0.30000000000000004", "1e-300",
        "4.9406564584124654e-324", "1.7976931348623157e308"}) {
    const auto v = parse_double(text);
    ASSERT_TRUE(v.has_value()) << text;
    const double want = std::strtod(text, nullptr);
    EXPECT_EQ(std::memcmp(&*v, &want, sizeof want), 0) << text;
  }
  EXPECT_TRUE(parse_double("inf").has_value());
  EXPECT_TRUE(parse_double("nan").has_value());
  for (const char* bad : {"", "1.5x", "+1", "0x10", "1e999", "1,5", ". 5",
                          "one"}) {
    EXPECT_FALSE(parse_double(bad).has_value()) << "'" << bad << "'";
  }
}

TEST(Parse, BoolSpellings) {
  for (const char* yes : {"1", "true", "yes", "on", " on "}) {
    EXPECT_EQ(parse_bool(yes), true) << yes;
  }
  for (const char* no : {"0", "false", "no", "off"}) {
    EXPECT_EQ(parse_bool(no), false) << no;
  }
  for (const char* bad : {"", "ture", "maybe", "2", "TRUE", "y"}) {
    EXPECT_FALSE(parse_bool(bad).has_value()) << "'" << bad << "'";
  }
}

TEST(Parse, OneErrorTextNamesTheSourceAndQuotesTheText) {
  try {
    (void)read_count("scenario.seed", "-1");
    FAIL() << "read_count accepted -1";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(),
                 "scenario.seed: expected a non-negative integer, got '-1'");
  }
  try {
    (void)read_double("--rate", "1.5x");
    FAIL() << "read_double accepted 1.5x";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "--rate: expected a number, got '1.5x'");
  }
}

TEST(SplitList, TrimsItemsAndRejectsEmptyOnesNamingTheKey) {
  EXPECT_EQ(split_list("k", " a ,b,\tc "),
            (std::vector<std::string>{"a", "b", "c"}));
  EXPECT_TRUE(split_list("k", "  ").empty());
  for (const char* bad : {"a,,b", "a,", ",a", " , "}) {
    try {
      (void)split_list("federation.clusters", bad);
      ADD_FAILURE() << "accepted '" << bad << "'";
    } catch (const std::runtime_error& e) {
      EXPECT_NE(std::string(e.what()).find("federation.clusters"),
                std::string::npos)
          << e.what();
    }
  }
}

// --- one grammar on every surface -----------------------------------------

/// A value read one way: nullopt when the surface rejected the text,
/// else the bits it produced.
using Read = std::optional<std::uint64_t>;

template <typename T>
std::uint64_t bits(T value) {
  std::uint64_t out = 0;
  std::memcpy(&out, &value, sizeof value);
  return out;
}

template <typename Get>
Read attempt(Get get) {
  try {
    return get();
  } catch (const std::runtime_error&) {
    return std::nullopt;
  }
}

/// Reads `text` as `kind` ("count", "int", "double" or "bool") from a
/// typed getter of `src`, which is a Config or a Cli.
template <typename Source>
Read read_as(const Source& src, const std::string& key,
             const std::string& kind) {
  return attempt([&]() -> std::uint64_t {
    if (kind == "count") return bits(src.get_size(key, 0));
    if (kind == "int") return bits(src.get_int(key, 0));
    if (kind == "double") return bits(src.get_double(key, 0.0));
    return bits(src.get_bool(key, false));
  });
}

TEST(OneGrammar, IniKeySectionParamsAndCliFlagAgree) {
  const std::vector<std::string> texts = {
      "5",     "0",    "-1",   "+5",    "0x10",  "12x",    "1.5x", "1.5",
      "9e5",   "1e-3", "-2",   "1e999", "inf",   "nan",    "true", "ture",
      "off",   "",     " 7 ",  "18446744073709551615", "18446744073709551616",
      "9223372036854775808", "0.1"};
  for (const std::string& text : texts) {
    const Config ini = Config::parse("[scheduler]\nk = " + text + "\n");
    const Config params = exp::scheduler_params_from_config(ini);
    const std::string flag = "--k=" + text;
    const char* argv[] = {"prog", flag.c_str()};
    const Cli cli(2, argv);
    for (const std::string kind : {"count", "int", "double", "bool"}) {
      const Read from_ini = read_as(ini, "scheduler.k", kind);
      EXPECT_EQ(read_as(params, "k", kind), from_ini)
          << kind << " '" << text << "'";
      EXPECT_EQ(read_as(cli, "k", kind), from_ini)
          << kind << " '" << text << "'";
    }
  }
  // Spot-check the table itself, so "all three reject everything" cannot
  // pass.
  const Config ini = Config::parse("a = 9e5\nb = 18446744073709551615\n");
  EXPECT_EQ(ini.get_double("a", 0.0), 9e5);
  EXPECT_EQ(ini.get_size("b", 0), std::numeric_limits<std::size_t>::max());
}

TEST(OneGrammar, SectionViewErrorsNameTheFullKey) {
  const Config params = exp::scheduler_params_from_config(
      Config::parse("[scheduler]\nbatch_size = 2OO\n"));
  try {
    (void)params.get_size("batch_size", 200);
    FAIL() << "accepted 2OO";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("scheduler.batch_size"),
              std::string::npos)
        << e.what();
  }
}

TEST(OneGrammar, SetRoundTripsEveryDoubleBitForBit) {
  Config params;
  for (const double v : {0.1, 1.0 / 3.0, 9e5, -2.5e-308, 5e-324}) {
    params.set("v", v);
    EXPECT_EQ(bits(params.get_double("v", 0.0)), bits(v)) << v;
  }
  params.set("n", std::size_t{7}).set("i", -3).set("flag", false);
  EXPECT_EQ(params.get_size("n", 0), 7u);
  EXPECT_EQ(params.get_int("i", 0), -3);
  EXPECT_FALSE(params.get_bool("flag", true));
}

}  // namespace
}  // namespace gasched::util
