// score_shared_pairs, the one all-pairs shared-data scorer behind the
// similarity graph, the greedy merge's initial sweep and the affinity
// forest's candidate edges: its rows must equal a brute-force
// ClusterTag::dot over every pair, at any thread count.
#include <gtest/gtest.h>

#include <span>
#include <vector>

#include "core/graph.h"
#include "core/tag.h"
#include "support/rng.h"
#include "support/thread_pool.h"

namespace mlsc::core {
namespace {

/// n random cluster tags over `width` positions: counts up to 4 (several
/// member tags summed), every 7th tag empty, and position 0 in 90% of
/// the rest — one posting list shared by most nodes.
std::vector<ClusterTag> random_tags(std::size_t n, std::uint64_t seed,
                                    std::uint32_t width) {
  Rng rng(seed);
  std::vector<ClusterTag> tags(n);
  for (std::size_t v = 0; v < n; ++v) {
    if (v % 7 == 3) continue;
    const std::uint64_t members = 1 + rng.next_below(4);
    for (std::uint64_t m = 0; m < members; ++m) {
      std::vector<std::uint32_t> bits;
      if (rng.next_below(10) != 0) bits.push_back(0);
      for (int k = 0; k < 3; ++k) {
        bits.push_back(static_cast<std::uint32_t>(rng.next_below(width)));
      }
      tags[v].add(ChunkTag::from_bits(std::move(bits)));
    }
  }
  return tags;
}

std::vector<std::vector<PairDot>> score(const std::vector<ClusterTag>& tags,
                                        ThreadPool* pool) {
  std::vector<std::span<const ClusterTag::Entry>> nodes;
  for (const ClusterTag& tag : tags) nodes.emplace_back(tag.entries());
  return score_shared_pairs(nodes, pool);
}

void expect_same_rows(const std::vector<std::vector<PairDot>>& x,
                      const std::vector<std::vector<PairDot>>& y) {
  ASSERT_EQ(x.size(), y.size());
  for (std::size_t a = 0; a < x.size(); ++a) {
    ASSERT_EQ(x[a].size(), y[a].size()) << "row " << a;
    for (std::size_t k = 0; k < x[a].size(); ++k) {
      EXPECT_EQ(x[a][k].b, y[a][k].b) << "row " << a;
      EXPECT_EQ(x[a][k].dot, y[a][k].dot) << "row " << a;
    }
  }
}

// 40 nodes stays below the scorer's parallel threshold, 700 fans out.
TEST(PairScorer, RowsMatchBruteForceDot) {
  for (const std::size_t n : {std::size_t{40}, std::size_t{700}}) {
    const auto tags = random_tags(n, 17 + n, 64);
    const auto rows = score(tags, nullptr);
    ASSERT_EQ(rows.size(), n);
    std::uint64_t max_dot = 0;
    for (std::uint32_t a = 0; a < n; ++a) {
      std::vector<PairDot> expected;
      for (std::uint32_t b = 0; b < a; ++b) {
        const std::uint64_t dot = tags[a].dot(tags[b]);
        if (dot > 0) expected.push_back(PairDot{b, dot});
        max_dot = std::max(max_dot, dot);
      }
      ASSERT_EQ(rows[a].size(), expected.size()) << "n " << n << " row " << a;
      for (std::size_t k = 0; k < expected.size(); ++k) {
        EXPECT_EQ(rows[a][k].b, expected[k].b);
        EXPECT_EQ(rows[a][k].dot, expected[k].dot);
      }
      if (tags[a].empty()) {
        EXPECT_TRUE(rows[a].empty());
      }
    }
    EXPECT_GT(max_dot, 4u);  // counts > 1 really multiply
  }
}

TEST(PairScorer, IdenticalAtOneAndFourThreads) {
  ThreadPool one(1);
  ThreadPool four(4);
  for (const std::size_t n : {std::size_t{40}, std::size_t{700}}) {
    const auto tags = random_tags(n, 5 + n, 48);
    const auto serial = score(tags, nullptr);
    expect_same_rows(serial, score(tags, &one));
    expect_same_rows(serial, score(tags, &four));
  }
}

TEST(PairScorer, EmptyInputs) {
  EXPECT_TRUE(score({}, nullptr).empty());
  const auto rows = score(std::vector<ClusterTag>(3), nullptr);
  ASSERT_EQ(rows.size(), 3u);
  for (const auto& row : rows) EXPECT_TRUE(row.empty());
}

}  // namespace
}  // namespace mlsc::core
