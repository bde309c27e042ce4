#include "poly/order.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>
#include <set>

#include "support/check.h"
#include "support/rng.h"

namespace mlsc::poly {
namespace {

std::vector<Iteration> walk_all(const IterationSpace& space,
                                const IterationOrder& order) {
  std::vector<Iteration> out;
  for (OrderWalker w(space, order); !w.done(); w.next()) {
    out.push_back(w.current());
  }
  return out;
}

TEST(IterationOrder, IdentityIsIdentity) {
  const auto order = IterationOrder::identity(3);
  EXPECT_TRUE(order.is_identity());
  EXPECT_EQ(order.depth(), 3u);
}

TEST(IterationOrder, ValidateRejectsBadPermutation) {
  const auto space = IterationSpace::from_extents({2, 2});
  IterationOrder order;
  order.permutation = {0, 0};
  order.tile_sizes = {1, 1};
  EXPECT_THROW(order.validate(space), mlsc::Error);
  order.permutation = {0, 1};
  order.tile_sizes = {0, 1};
  EXPECT_THROW(order.validate(space), mlsc::Error);
}

TEST(OrderWalker, IdentityMatchesLexicographic) {
  const auto space = IterationSpace::from_extents({3, 4});
  const auto visited = walk_all(space, IterationOrder::identity(2));
  ASSERT_EQ(visited.size(), space.size());
  for (std::uint64_t rank = 0; rank < space.size(); ++rank) {
    EXPECT_EQ(visited[rank], space.delinearize(rank));
  }
}

TEST(OrderWalker, PermutationSwapsLoops) {
  const auto space = IterationSpace::from_extents({2, 3});
  IterationOrder order;
  order.permutation = {1, 0};  // i1 outer, i0 inner
  order.tile_sizes = {1, 1};
  const auto visited = walk_all(space, order);
  ASSERT_EQ(visited.size(), 6u);
  EXPECT_EQ(visited[0], (Iteration{0, 0}));
  EXPECT_EQ(visited[1], (Iteration{1, 0}));  // i0 varies fastest
  EXPECT_EQ(visited[2], (Iteration{0, 1}));
}

TEST(OrderWalker, TiledTraversalOrder) {
  const auto space = IterationSpace::from_extents({4, 4});
  IterationOrder order = IterationOrder::identity(2);
  order.tile_sizes = {2, 2};
  const auto visited = walk_all(space, order);
  ASSERT_EQ(visited.size(), 16u);
  // First tile: (0,0) (0,1) (1,0) (1,1), then tile (0, 2..3).
  EXPECT_EQ(visited[0], (Iteration{0, 0}));
  EXPECT_EQ(visited[1], (Iteration{0, 1}));
  EXPECT_EQ(visited[2], (Iteration{1, 0}));
  EXPECT_EQ(visited[3], (Iteration{1, 1}));
  EXPECT_EQ(visited[4], (Iteration{0, 2}));
}

TEST(OrderWalker, EdgeTilesCoverRemainder) {
  const auto space = IterationSpace::from_extents({5, 3});
  IterationOrder order = IterationOrder::identity(2);
  order.tile_sizes = {2, 2};
  const auto visited = walk_all(space, order);
  EXPECT_EQ(visited.size(), 15u);
}

/// Property: every order visits each iteration exactly once.
class OrderWalkerPermutationTest
    : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(OrderWalkerPermutationTest, VisitsEveryIterationOnce) {
  const auto [perm_code, tile] = GetParam();
  const IterationSpace space({{1, 5}, {0, 3}, {2, 4}});
  IterationOrder order;
  switch (perm_code) {
    case 0:
      order.permutation = {0, 1, 2};
      break;
    case 1:
      order.permutation = {2, 0, 1};
      break;
    default:
      order.permutation = {1, 2, 0};
      break;
  }
  order.tile_sizes = {static_cast<std::int64_t>(tile), 1,
                      static_cast<std::int64_t>(tile)};

  std::set<std::uint64_t> ranks;
  std::uint64_t count = 0;
  for (OrderWalker w(space, order); !w.done(); w.next()) {
    EXPECT_EQ(w.position(), count);
    ranks.insert(space.linearize(w.current()));
    ++count;
  }
  EXPECT_EQ(count, space.size());
  EXPECT_EQ(ranks.size(), space.size());
}

INSTANTIATE_TEST_SUITE_P(
    PermsAndTiles, OrderWalkerPermutationTest,
    ::testing::Combine(::testing::Values(0, 1, 2),
                       ::testing::Values(1, 2, 3, 7)));

TEST(OrderWalker, SeekMatchesWalkFromStart) {
  // Random boxes (lower bounds off zero), permutations and tile sizes,
  // many of them not dividing the extents (edge tiles): a walker started
  // at, or jumped to, position p must visit exactly the iterations a
  // walk from 0 visits from p on.
  Rng rng(2024);
  for (int trial = 0; trial < 200; ++trial) {
    const std::size_t depth = 1 + rng.next_below(4);
    std::vector<LoopBounds> loops;
    for (std::size_t k = 0; k < depth; ++k) {
      const auto lower = static_cast<std::int64_t>(rng.next_below(5)) - 2;
      const auto extent = static_cast<std::int64_t>(1 + rng.next_below(7));
      loops.push_back({lower, lower + extent - 1});
    }
    const IterationSpace space(loops);
    IterationOrder order = IterationOrder::identity(depth);
    for (std::size_t k = depth; k > 1; --k) {
      std::swap(order.permutation[k - 1],
                order.permutation[rng.next_below(k)]);
    }
    for (auto& tile : order.tile_sizes) {
      tile = static_cast<std::int64_t>(1 + rng.next_below(5));
    }
    const auto all = walk_all(space, order);
    ASSERT_EQ(all.size(), space.size());
    for (int probe = 0; probe < 8; ++probe) {
      const std::uint64_t p = rng.next_below(space.size() + 1);
      OrderWalker started(space, order, p);
      OrderWalker jumped(space, order);
      if (rng.next_below(2) == 0 && !jumped.done()) jumped.next();
      jumped.seek(p);
      for (std::uint64_t pos = p; pos < all.size(); ++pos) {
        ASSERT_FALSE(started.done()) << order.to_string() << " at " << p;
        ASSERT_FALSE(jumped.done()) << order.to_string() << " at " << p;
        ASSERT_EQ(started.position(), pos);
        ASSERT_EQ(started.current(), all[pos])
            << order.to_string() << " from " << p << " at " << pos;
        ASSERT_EQ(jumped.current(), all[pos])
            << order.to_string() << " from " << p << " at " << pos;
        started.next();
        jumped.next();
      }
      EXPECT_TRUE(started.done());
      EXPECT_TRUE(jumped.done());
    }
  }
}

TEST(OrderWalker, SeekPastTheEndThrows) {
  const auto space = IterationSpace::from_extents({3, 4});
  OrderWalker walker(space, IterationOrder::identity(2));
  EXPECT_THROW(walker.seek(13), mlsc::Error);
}

}  // namespace
}  // namespace mlsc::poly
