// Tests for the [runtime] INI section → ServeSetup mapping, including
// the eager validation of policy / arrival / overload names.

#include "rt/serve_config.hpp"

#include <gtest/gtest.h>

#include <stdexcept>
#include <string>

#include "util/config.hpp"

namespace gasched::rt {
namespace {

util::Config parse(const std::string& body) {
  return util::Config::parse("[runtime]\n" + body);
}

TEST(ServeConfigIni, DefaultsWhenSectionIsEmpty) {
  const ServeSetup s = serve_setup_from_config(util::Config::parse(""));
  EXPECT_EQ(s.runtime.worker_speeds.size(), 4u);
  EXPECT_DOUBLE_EQ(s.runtime.work_scale, 0.01);
  EXPECT_TRUE(s.runtime.dispatch_latency.empty());
  EXPECT_EQ(s.runtime.ring_capacity, 1024u);
  EXPECT_EQ(s.serve.policy, "rr");
  EXPECT_EQ(s.serve.arrival, "constant");
  EXPECT_DOUBLE_EQ(s.serve.rate, 1000.0);
  EXPECT_DOUBLE_EQ(s.serve.duration_s, 5.0);
  EXPECT_EQ(s.serve.admission_batch, 32u);
  EXPECT_EQ(s.serve.queue_capacity, 4096u);
  EXPECT_TRUE(s.serve.shed);
}

TEST(ServeConfigIni, ParsesEveryKey) {
  const ServeSetup s = serve_setup_from_config(parse(
      "workers = 6\n"
      "work_scale = 0.5\n"
      "dispatch_latency = 0.001\n"
      "ring_capacity = 64\n"
      "spin_polls = 128\n"
      "seed = 99\n"
      "policy = fastest\n"
      "rate = 2500\n"
      "arrival = diurnal\n"
      "arrival_amplitude = 0.3\n"
      "duration = 2.5\n"
      "admission_batch = 16\n"
      "queue_capacity = 512\n"
      "overload = block\n"));
  EXPECT_EQ(s.runtime.worker_speeds.size(), 6u);
  EXPECT_DOUBLE_EQ(s.runtime.work_scale, 0.5);
  ASSERT_EQ(s.runtime.dispatch_latency.size(), 6u);
  EXPECT_DOUBLE_EQ(s.runtime.dispatch_latency[0], 0.001);
  EXPECT_EQ(s.runtime.ring_capacity, 64u);
  EXPECT_EQ(s.runtime.spin_polls, 128u);
  EXPECT_EQ(s.runtime.seed, 99u);
  EXPECT_EQ(s.serve.policy, "fastest");
  EXPECT_DOUBLE_EQ(s.serve.rate, 2500.0);
  EXPECT_EQ(s.serve.arrival, "diurnal");
  EXPECT_DOUBLE_EQ(
      s.serve.arrival_params.get_double("arrival_amplitude", 0.0), 0.3);
  EXPECT_DOUBLE_EQ(s.serve.duration_s, 2.5);
  EXPECT_EQ(s.serve.admission_batch, 16u);
  EXPECT_EQ(s.serve.queue_capacity, 512u);
  EXPECT_FALSE(s.serve.shed);
}

TEST(ServeConfigIni, ExplicitSpeedsOverrideWorkerCount) {
  const ServeSetup s =
      serve_setup_from_config(parse("speeds = 1.0, 0.5, 0.25\n"));
  ASSERT_EQ(s.runtime.worker_speeds.size(), 3u);
  EXPECT_DOUBLE_EQ(s.runtime.worker_speeds[1], 0.5);
  EXPECT_THROW(serve_setup_from_config(parse("speeds = 1.0, zebra\n")),
               std::runtime_error);
}

TEST(ServeConfigIni, SpeedsRejectPartialNumbersAndEmptyItemsNamingTheKey) {
  // "1.5x" used to read as 1.5.
  for (const char* line : {"speeds = 1.5x, 2\n", "speeds = 1, , 2\n",
                           "speeds = +1\n", "speeds =\n"}) {
    try {
      serve_setup_from_config(parse(line));
      ADD_FAILURE() << line << " was accepted";
    } catch (const std::runtime_error& e) {
      EXPECT_NE(std::string(e.what()).find("runtime.speeds"),
                std::string::npos)
          << e.what();
    }
  }
}

TEST(ServeConfigIni, SeedIsAnUnsigned64BitCount) {
  EXPECT_EQ(
      serve_setup_from_config(parse("seed = 18446744073709551615\n"))
          .runtime.seed,
      18446744073709551615u);
  try {
    serve_setup_from_config(parse("seed = -1\n"));
    FAIL() << "runtime.seed = -1 was accepted";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("runtime.seed"), std::string::npos)
        << e.what();
  }
}

TEST(ServeConfigIni, UnknownNamesThrowListingValidChoices) {
  try {
    serve_setup_from_config(parse("policy = cheapest\n"));
    FAIL() << "expected std::runtime_error";
  } catch (const std::runtime_error& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("least_loaded"), std::string::npos);
  }
  try {
    serve_setup_from_config(parse("arrival = sawtooth\n"));
    FAIL() << "expected std::runtime_error";
  } catch (const std::runtime_error& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("diurnal"), std::string::npos);
    EXPECT_NE(msg.find("ramp"), std::string::npos);
  }
  try {
    serve_setup_from_config(parse("overload = panic\n"));
    FAIL() << "expected std::runtime_error";
  } catch (const std::runtime_error& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("shed"), std::string::npos);
    EXPECT_NE(msg.find("block"), std::string::npos);
  }
}

TEST(ServeConfigIni, RejectsOutOfRangeValues) {
  EXPECT_THROW(serve_setup_from_config(parse("workers = 0\n")),
               std::runtime_error);
  EXPECT_THROW(serve_setup_from_config(parse("ring_capacity = 1\n")),
               std::runtime_error);
  EXPECT_THROW(serve_setup_from_config(parse("admission_batch = 0\n")),
               std::runtime_error);
  EXPECT_THROW(serve_setup_from_config(parse("queue_capacity = 0\n")),
               std::runtime_error);
  EXPECT_THROW(serve_setup_from_config(parse("dispatch_latency = -1\n")),
               std::runtime_error);
}

}  // namespace
}  // namespace gasched::rt
