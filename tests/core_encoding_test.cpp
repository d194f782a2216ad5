// Tests for the schedule encoding (paper §3.1, Fig 2).

#include "core/encoding.hpp"

#include <gtest/gtest.h>

#include <limits>
#include <stdexcept>
#include <vector>

#include "util/rng.hpp"

namespace gasched::core {
namespace {

TEST(Codec, ChromosomeLengthIsHPlusMMinusOne) {
  EXPECT_EQ(ScheduleCodec(10, 4).chromosome_length(), 13u);
  EXPECT_EQ(ScheduleCodec(0, 3).chromosome_length(), 2u);
  EXPECT_EQ(ScheduleCodec(5, 1).chromosome_length(), 5u);
}

TEST(Codec, RejectsZeroProcessors) {
  EXPECT_THROW(ScheduleCodec(5, 0), std::invalid_argument);
}

/// The schedule a chromosome decodes to.
FlatSchedule decoded(const ScheduleCodec& codec, const ga::Chromosome& c) {
  FlatSchedule s;
  codec.decode_into(c, s);
  return s;
}

/// Queue j of `s` as a vector, for comparisons.
std::vector<std::size_t> queue_of(const FlatSchedule& s, std::size_t j) {
  const auto q = s.queue(j);
  return {q.begin(), q.end()};
}

TEST(Codec, EncodeDecodeRoundTrip) {
  const ScheduleCodec codec(6, 3);
  // P0: 0 3 | P1: 1 4 5 | P2: 2, every delimiter written as −1.
  const FlatSchedule s = decoded(codec, {0, 3, -1, 1, 4, 5, -1, 2});
  ASSERT_EQ(s.num_procs(), 3u);
  EXPECT_EQ(queue_of(s, 0), (std::vector<std::size_t>{0, 3}));
  EXPECT_EQ(queue_of(s, 1), (std::vector<std::size_t>{1, 4, 5}));
  EXPECT_EQ(queue_of(s, 2), (std::vector<std::size_t>{2}));
  const ga::Chromosome c = codec.encode(s);
  EXPECT_EQ(c.size(), codec.chromosome_length());
  EXPECT_TRUE(codec.valid(c));
  EXPECT_EQ(decoded(codec, c), s);
}

TEST(Codec, PaperFigureTwoShape) {
  // Fig 2 example: queues split by delimiters; verify layout precisely.
  const ScheduleCodec codec(4, 3);
  const ga::Chromosome c = codec.encode(decoded(codec, {2, 0, -1, -1, 1, 3}));
  // P0: 2 0 | P1: (empty) | P2: 1 3  =>  [2, 0, d0, d1, 1, 3]
  const ga::Chromosome expected{2, 0, ScheduleCodec::delimiter_gene(0),
                                ScheduleCodec::delimiter_gene(1), 1, 3};
  EXPECT_EQ(c, expected);
}

TEST(Codec, EmptyBatchEncodesOnlyDelimiters) {
  const ScheduleCodec codec(0, 4);
  const ga::Chromosome c = codec.encode(decoded(codec, {-1, -1, -1}));
  EXPECT_EQ(c.size(), 3u);
  for (const auto g : c) EXPECT_TRUE(ScheduleCodec::is_delimiter(g));
}

TEST(Codec, SingleProcessorNoDelimiters) {
  const ScheduleCodec codec(3, 1);
  const FlatSchedule s = decoded(codec, {2, 0, 1});
  const ga::Chromosome c = codec.encode(s);
  EXPECT_EQ(c, (ga::Chromosome{2, 0, 1}));
  EXPECT_EQ(queue_of(decoded(codec, c), 0),
            (std::vector<std::size_t>{2, 0, 1}));
}

TEST(Codec, EncodeRejectsBadQueues) {
  const ScheduleCodec codec(4, 2);
  // One queue for two processors.
  EXPECT_THROW(codec.encode(decoded(ScheduleCodec(4, 1), {0, 1, 2, 3})),
               std::invalid_argument);
  // Slot out of range.
  EXPECT_THROW(codec.encode(decoded(codec, {0, 9, -1, 1, 2})),
               std::invalid_argument);
  // Missing a task.
  EXPECT_THROW(codec.encode(decoded(codec, {0, -1, 1, 2})),
               std::invalid_argument);
  // Duplicate task (length exceeds H+M-1).
  EXPECT_THROW(codec.encode(decoded(codec, {0, 0, -1, 1, 2, 3})),
               std::invalid_argument);
  // Duplicate task in place of a missing one (length H+M-1).
  EXPECT_THROW(codec.encode(decoded(codec, {0, 0, -1, 1, 2})),
               std::invalid_argument);
}

TEST(FlatSchedule, AssignOrderedRejectsANonPermutation) {
  FlatSchedule s;
  s.assign_grouped(std::vector<std::size_t>{0, 1, 0, 1}, 2);
  const FlatSchedule before = s;
  const std::vector<std::size_t> slot_proc{0, 0, 1, 1};
  // A repeated slot in place of a missing one would overwrite slot 1's
  // entry and lose slot 3.
  EXPECT_THROW(
      s.assign_ordered(std::vector<std::size_t>{0, 0, 1, 2}, slot_proc, 2),
      std::invalid_argument);
  // Too short, too long, and naming a slot that does not exist.
  EXPECT_THROW(s.assign_ordered(std::vector<std::size_t>{0, 1, 2}, slot_proc, 2),
               std::invalid_argument);
  EXPECT_THROW(
      s.assign_ordered(std::vector<std::size_t>{0, 1, 2, 3, 0}, slot_proc, 2),
      std::invalid_argument);
  EXPECT_THROW(
      s.assign_ordered(std::vector<std::size_t>{0, 1, 2, 4}, slot_proc, 2),
      std::invalid_argument);
  EXPECT_EQ(s, before);
}

TEST(FlatSchedule, AssignRejectsAnOutOfRangeProcessor) {
  FlatSchedule s;
  s.assign_grouped(std::vector<std::size_t>{0, 1, 0}, 2);
  const FlatSchedule before = s;
  const std::vector<std::size_t> slot_proc{0, 2, 1};
  EXPECT_THROW(s.assign_grouped(slot_proc, 2), std::invalid_argument);
  EXPECT_THROW(
      s.assign_ordered(std::vector<std::size_t>{0, 1, 2}, slot_proc, 2),
      std::invalid_argument);
  EXPECT_EQ(s, before);
}

TEST(Codec, DecodeAnyPermutationAssignsEveryTaskOnce) {
  const ScheduleCodec codec(12, 5);
  ga::Chromosome c;
  for (std::size_t i = 0; i < 12; ++i) c.push_back(static_cast<ga::Gene>(i));
  for (std::size_t k = 0; k < 4; ++k) {
    c.push_back(ScheduleCodec::delimiter_gene(k));
  }
  util::Rng rng(1);
  for (int trial = 0; trial < 100; ++trial) {
    rng.shuffle(c);
    ASSERT_TRUE(codec.valid(c));
    const FlatSchedule s = decoded(codec, c);
    ASSERT_EQ(s.num_procs(), 5u);
    std::vector<int> seen(12, 0);
    for (std::size_t j = 0; j < s.num_procs(); ++j) {
      for (const auto slot : s.queue(j)) ++seen[slot];
    }
    for (const int n : seen) ASSERT_EQ(n, 1);
  }
}

TEST(Codec, ValidRejectsWrongLengthAndDuplicates) {
  const ScheduleCodec codec(3, 2);
  EXPECT_FALSE(codec.valid({0, 1, 2}));                       // too short
  EXPECT_FALSE(codec.valid({0, 1, 1, ScheduleCodec::delimiter_gene(0)}));
  EXPECT_FALSE(codec.valid({0, 1, 5, ScheduleCodec::delimiter_gene(0)}));
  EXPECT_FALSE(codec.valid({0, 1, 2, ScheduleCodec::delimiter_gene(3)}));
  EXPECT_TRUE(codec.valid({0, 1, 2, ScheduleCodec::delimiter_gene(0)}));
}

TEST(Codec, DecodeRejectsTooManyDelimiters) {
  const ScheduleCodec codec(2, 2);
  const ga::Chromosome c{0, ScheduleCodec::delimiter_gene(0),
                         ScheduleCodec::delimiter_gene(1), 1};
  FlatSchedule s;
  EXPECT_THROW(codec.decode_into(c, s), std::invalid_argument);
}

TEST(Codec, DelimiterGenesAreDistinctNegatives) {
  for (std::size_t k = 0; k < 10; ++k) {
    const ga::Gene g = ScheduleCodec::delimiter_gene(k);
    EXPECT_LT(g, 0);
    EXPECT_TRUE(ScheduleCodec::is_delimiter(g));
    for (std::size_t k2 = 0; k2 < k; ++k2) {
      EXPECT_NE(g, ScheduleCodec::delimiter_gene(k2));
    }
  }
}

TEST(Codec, ScheduleGeneWritesEveryDelimiterAsMinusOne) {
  for (const std::size_t k : {0u, 1u, 48u, 65535u, 1u << 30}) {
    EXPECT_EQ(ScheduleCodec::schedule_gene(ScheduleCodec::delimiter_gene(k)),
              -1);
  }
  EXPECT_EQ(ScheduleCodec::schedule_gene(std::numeric_limits<ga::Gene>::min()),
            -1);
  for (const std::size_t s : {0u, 1u, 199u, 32768u, 1u << 30}) {
    const ga::Gene g = ScheduleCodec::task_gene(s);
    EXPECT_EQ(ScheduleCodec::schedule_gene(g), g);
  }
}

}  // namespace
}  // namespace gasched::core
