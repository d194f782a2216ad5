// Tests for the command-line flag parser.

#include "util/cli.hpp"

#include <gtest/gtest.h>

#include <stdexcept>
#include <string>
#include <vector>

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

TEST(Cli, MalformedNumbersThrowNamingTheFlag) {
  // Text that is not a number must not read as the fallback: `--seed abc`
  // would otherwise run the default seed without a word.
  for (const char* bad : {"abc", "12x", "1.5", "", "true"}) {
    const Cli cli = make({"prog", "--seed", bad});
    try {
      (void)cli.get_int("seed", 9);
      ADD_FAILURE() << "get_int accepted '" << bad << "'";
    } catch (const std::runtime_error& e) {
      EXPECT_NE(std::string(e.what()).find("--seed"), std::string::npos)
          << e.what();
    }
  }
  for (const char* bad : {"abc", "0.5x", "", "true", "1e999"}) {
    const Cli cli = make({"prog", "--comm", bad});
    try {
      (void)cli.get_double("comm", 2.5);
      ADD_FAILURE() << "get_double accepted '" << bad << "'";
    } catch (const std::runtime_error& e) {
      EXPECT_NE(std::string(e.what()).find("--comm"), std::string::npos)
          << e.what();
    }
  }
  EXPECT_DOUBLE_EQ(make({"p", "--comm", "1e-3"}).get_double("comm", 0.0),
                   1e-3);
  EXPECT_DOUBLE_EQ(make({"p", "--comm=-2"}).get_double("comm", 0.0), -2.0);
}

TEST(Cli, RequireKnownNamesTheUnknownFlag) {
  const Cli cli = make({"prog", "--tasks", "60", "--rep", "1", "in.ini"});
  EXPECT_NO_THROW(cli.require_known({"tasks", "rep"}));
  try {
    cli.require_known({"tasks", "reps", "generations"});
    ADD_FAILURE() << "accepted --rep";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "unknown flag --rep");
  }
  // Positional arguments are not flags.
  EXPECT_NO_THROW(make({"prog", "in.ini"}).require_known({}));
  EXPECT_THROW(make({"prog", "--x=1"}).require_known({}), std::runtime_error);
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

TEST(Cli, DeclaredBooleanNeverTakesTheNextArgument) {
  // `run_scenario --serial configs/sweep_grid.ini`: the config stays
  // positional instead of becoming --serial's value.
  const std::vector<const char*> argv = {"prog", "--serial",
                                         "configs/sweep_grid.ini", "--csv",
                                         "out.csv"};
  const Cli cli(static_cast<int>(argv.size()), argv.data(), {"serial"});
  ASSERT_EQ(cli.positional().size(), 1u);
  EXPECT_EQ(cli.positional()[0], "configs/sweep_grid.ini");
  EXPECT_TRUE(cli.get_bool("serial", false));
  EXPECT_EQ(cli.get("csv", ""), "out.csv");
  EXPECT_NO_THROW(cli.require_known({"serial", "csv"}));
  // `--name=value` still sets a declared boolean.
  const std::vector<const char*> off = {"prog", "--serial=off", "in.ini"};
  const Cli cli_off(static_cast<int>(off.size()), off.data(), {"serial"});
  EXPECT_FALSE(cli_off.get_bool("serial", true));
  EXPECT_EQ(cli_off.positional().size(), 1u);
}

TEST(Cli, DeclaredBooleanRejectsOtherValuesNamingTheFlag) {
  // `--full=ture` used to read as false and run at quick scale.
  for (const char* arg : {"--full=ture", "--full=maybe", "--full="}) {
    const std::vector<const char*> argv = {"prog", arg};
    const Cli cli(static_cast<int>(argv.size()), argv.data(), {"full"});
    try {
      cli.require_known({"full"});
      ADD_FAILURE() << "accepted " << arg;
    } catch (const std::runtime_error& e) {
      EXPECT_NE(std::string(e.what()).find("--full"), std::string::npos)
          << e.what();
    }
  }
  EXPECT_THROW((void)make({"p", "--serial=maybe"}).get_bool("serial", false),
               std::runtime_error);
}

TEST(EnvString, MissingVariableIsNullopt) {
  EXPECT_FALSE(env_string("GASCHED_DEFINITELY_NOT_SET_12345").has_value());
}

}  // namespace
}  // namespace gasched::util
