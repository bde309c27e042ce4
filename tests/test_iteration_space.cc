#include "poly/iteration_space.h"

#include <gtest/gtest.h>

#include "support/check.h"
#include "support/rng.h"

namespace mlsc::poly {
namespace {

TEST(IterationSpace, SizeAndBounds) {
  const IterationSpace s({{2, 5}, {1, 3}});  // 4 x 3
  EXPECT_EQ(s.depth(), 2u);
  EXPECT_EQ(s.size(), 12u);
  EXPECT_FALSE(s.empty());
  EXPECT_EQ(s.loop(0).extent(), 4);
}

TEST(IterationSpace, FromExtents) {
  const auto s = IterationSpace::from_extents({3, 4, 5});
  EXPECT_EQ(s.size(), 60u);
  EXPECT_EQ(s.loop(2).lower, 0);
  EXPECT_EQ(s.loop(2).upper, 4);
}

TEST(IterationSpace, EmptySpace) {
  const IterationSpace s({{5, 2}});
  EXPECT_TRUE(s.empty());
  EXPECT_EQ(s.size(), 0u);
}

TEST(IterationSpace, Contains) {
  const IterationSpace s({{2, 5}, {1, 3}});
  EXPECT_TRUE(s.contains(std::vector<std::int64_t>{2, 1}));
  EXPECT_TRUE(s.contains(std::vector<std::int64_t>{5, 3}));
  EXPECT_FALSE(s.contains(std::vector<std::int64_t>{6, 1}));
  EXPECT_FALSE(s.contains(std::vector<std::int64_t>{2}));
}

TEST(IterationSpace, LinearizeDelinearizeRoundTrip) {
  const IterationSpace s({{2, 5}, {1, 3}, {0, 6}});
  for (std::uint64_t rank = 0; rank < s.size(); ++rank) {
    const auto iter = s.delinearize(rank);
    EXPECT_EQ(s.linearize(iter), rank);
    EXPECT_TRUE(s.contains(iter));
  }
}

TEST(IterationSpace, LexicographicOrder) {
  const IterationSpace s({{0, 1}, {0, 2}});
  EXPECT_EQ(s.delinearize(0), (Iteration{0, 0}));
  for (std::uint64_t rank = 1; rank < s.size(); ++rank) {
    EXPECT_LT(s.delinearize(rank - 1), s.delinearize(rank));
  }
  EXPECT_EQ(s.delinearize(s.size() - 1), (Iteration{1, 2}));
}

TEST(IterationSpace, SuccessorResetsInnerLoops) {
  const IterationSpace s({{0, 2}, {5, 6}});
  EXPECT_EQ(s.delinearize(s.linearize(Iteration{0, 6}) + 1),
            (Iteration{1, 5}));
}

TEST(LinearRanges, NormalizeMergesAndSorts) {
  auto out = normalize_ranges({{10, 20}, {0, 5}, {5, 10}, {30, 30}});
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0], (LinearRange{0, 20}));
}

TEST(LinearRanges, NormalizeKeepsGaps) {
  auto out = normalize_ranges({{5, 7}, {10, 12}});
  ASSERT_EQ(out.size(), 2u);
  EXPECT_EQ(total_range_size(out), 4u);
}

/// Property: total size preserved for disjoint random range sets.
TEST(LinearRangesProperty, NormalizePreservesDisjointSize) {
  mlsc::Rng rng(3);
  for (int trial = 0; trial < 30; ++trial) {
    std::vector<LinearRange> ranges;
    std::uint64_t pos = 0;
    std::uint64_t total = 0;
    for (int i = 0; i < 20; ++i) {
      pos += rng.next_below(5);  // gap
      const std::uint64_t len = rng.next_below(10);
      ranges.push_back({pos, pos + len});
      total += len;
      pos += len;
    }
    // Shuffle by swapping.
    for (std::size_t i = ranges.size(); i-- > 1;) {
      std::swap(ranges[i], ranges[rng.next_below(i + 1)]);
    }
    EXPECT_EQ(total_range_size(normalize_ranges(ranges)), total);
  }
}

}  // namespace
}  // namespace mlsc::poly
