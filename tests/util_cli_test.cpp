// Tests for the command-line flag parser.

#include "util/cli.hpp"

#include <gtest/gtest.h>

#include <stdexcept>
#include <string>

namespace gasched::util {
namespace {

Cli make(std::initializer_list<const char*> args) {
  std::vector<const char*> argv(args);
  return Cli(static_cast<int>(argv.size()), argv.data());
}

TEST(Cli, ParsesSpaceSeparatedFlags) {
  const Cli cli = make({"prog", "--tasks", "500", "--name", "pn"});
  EXPECT_EQ(cli.get_int("tasks", 0), 500);
  EXPECT_EQ(cli.get("name", ""), "pn");
}

TEST(Cli, ParsesEqualsSeparatedFlags) {
  const Cli cli = make({"prog", "--tasks=250", "--ratio=0.5"});
  EXPECT_EQ(cli.get_int("tasks", 0), 250);
  EXPECT_DOUBLE_EQ(cli.get_double("ratio", 0.0), 0.5);
}

TEST(Cli, BooleanFlagWithoutValue) {
  const Cli cli = make({"prog", "--verbose"});
  EXPECT_TRUE(cli.has("verbose"));
  EXPECT_TRUE(cli.get_bool("verbose", false));
}

TEST(Cli, BooleanFlagExplicitValues) {
  EXPECT_TRUE(make({"p", "--x=yes"}).get_bool("x", false));
  EXPECT_TRUE(make({"p", "--x=on"}).get_bool("x", false));
  EXPECT_TRUE(make({"p", "--x=1"}).get_bool("x", false));
  EXPECT_FALSE(make({"p", "--x=0"}).get_bool("x", true));
  EXPECT_FALSE(make({"p", "--x=no"}).get_bool("x", true));
}

TEST(Cli, DefaultsWhenMissing) {
  const Cli cli = make({"prog"});
  EXPECT_EQ(cli.get_int("missing", 7), 7);
  EXPECT_DOUBLE_EQ(cli.get_double("missing", 2.5), 2.5);
  EXPECT_EQ(cli.get("missing", "dft"), "dft");
  EXPECT_FALSE(cli.get_bool("missing", false));
}

TEST(Cli, MalformedIntFallsBack) {
  const Cli cli = make({"prog", "--n", "abc"});
  EXPECT_EQ(cli.get_int("n", 9), 9);
}

TEST(Cli, PositionalArgumentsPreserved) {
  const Cli cli = make({"prog", "input.csv", "--n", "3", "other"});
  ASSERT_EQ(cli.positional().size(), 2u);
  EXPECT_EQ(cli.positional()[0], "input.csv");
  EXPECT_EQ(cli.positional()[1], "other");
}

TEST(Cli, ProgramNameCaptured) {
  const Cli cli = make({"myprog"});
  EXPECT_EQ(cli.program(), "myprog");
}

TEST(Cli, NegativeNumbersAsValues) {
  const Cli cli = make({"prog", "--offset=-5"});
  EXPECT_EQ(cli.get_int("offset", 0), -5);
}

TEST(Cli, LastOccurrenceWins) {
  const Cli cli = make({"prog", "--n", "1", "--n", "2"});
  EXPECT_EQ(cli.get_int("n", 0), 2);
}

TEST(Cli, GetSizeParsesCounts) {
  const Cli cli = make({"prog", "--tasks", "3000", "--reps=0"});
  EXPECT_EQ(cli.get_size("tasks", 1), 3000u);
  EXPECT_EQ(cli.get_size("reps", 1), 0u);
  EXPECT_EQ(cli.get_size("missing", 7), 7u);
}

TEST(Cli, GetSizeRejectsNegativeAndNonIntegerText) {
  // A negative count must not wrap to 2^64 - 5, and text that is not a
  // number must not read as the fallback.
  for (const char* bad : {"-5", "abc", "12x", "1.5", "", "true"}) {
    const Cli cli = make({"prog", "--tasks", bad});
    try {
      (void)cli.get_size("tasks", 1);
      ADD_FAILURE() << "accepted '" << bad << "'";
    } catch (const std::runtime_error& e) {
      EXPECT_NE(std::string(e.what()).find("--tasks"), std::string::npos)
          << e.what();
    }
  }
}

TEST(Cli, GetSizeRejectsAFlagWithoutValue) {
  const Cli cli = make({"prog", "--tasks", "--reps", "2"});
  EXPECT_THROW((void)cli.get_size("tasks", 1), std::runtime_error);
  EXPECT_EQ(cli.get_size("reps", 1), 2u);
}

TEST(EnvString, MissingVariableIsNullopt) {
  EXPECT_FALSE(env_string("GASCHED_DEFINITELY_NOT_SET_12345").has_value());
}

}  // namespace
}  // namespace gasched::util
