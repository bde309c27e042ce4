#include "core/tag.h"

#include <gtest/gtest.h>

#include "support/check.h"

namespace mlsc::core {
namespace {

TEST(ChunkTag, FromBitsSortsAndDedupes) {
  const auto tag = ChunkTag::from_bits({5, 1, 5, 3});
  EXPECT_EQ(tag.bits(), (std::vector<std::uint32_t>{1, 3, 5}));
  EXPECT_EQ(tag.popcount(), 3u);
  EXPECT_TRUE(tag.test(3));
  EXPECT_FALSE(tag.test(2));
}

TEST(ChunkTag, CommonBitsMatchesFig8) {
  // γ1 = {0,2,4}, γ3 = {0,2,4,6}: weight 3 in the paper's Fig. 8.
  const auto g1 = ChunkTag::from_bits({0, 2, 4});
  const auto g3 = ChunkTag::from_bits({0, 2, 4, 6});
  EXPECT_EQ(g1.common_bits(g3), 3u);
  // γ1 and γ5 = {0,4,6,8}: weight 2.
  const auto g5 = ChunkTag::from_bits({0, 4, 6, 8});
  EXPECT_EQ(g1.common_bits(g5), 2u);
}

TEST(ChunkTag, HammingDistance) {
  const auto a = ChunkTag::from_bits({1, 2, 3});
  const auto b = ChunkTag::from_bits({2, 3, 4, 5});
  EXPECT_EQ(a.hamming_distance(b), 3u);  // {1} vs {4,5}
  EXPECT_EQ(a.hamming_distance(a), 0u);
}

TEST(ChunkTag, MergeAndRender) {
  const auto a = ChunkTag::from_bits({0, 2});
  const auto b = ChunkTag::from_bits({2, 3});
  const auto m = a.merged_with(b);
  EXPECT_EQ(m.bits(), (std::vector<std::uint32_t>{0, 2, 3}));
  EXPECT_EQ(m.to_string(4), "1011");
}

TEST(ChunkTag, HashConsingBehaviour) {
  const auto a = ChunkTag::from_bits({7, 9});
  const auto b = ChunkTag::from_bits({9, 7});
  EXPECT_EQ(a, b);
  EXPECT_EQ(a.hash(), b.hash());
  const auto c = ChunkTag::from_bits({7});
  EXPECT_NE(a.hash(), c.hash());
}

TEST(ClusterTag, BitwiseSumAndDot) {
  ClusterTag cluster;
  cluster.add(ChunkTag::from_bits({0, 2, 4}));       // γ1
  cluster.add(ChunkTag::from_bits({0, 2, 4, 6}));    // γ3
  EXPECT_EQ(cluster.count_at(0), 2u);
  EXPECT_EQ(cluster.count_at(6), 1u);
  EXPECT_EQ(cluster.count_at(1), 0u);
}

TEST(ClusterTag, DotOfClusters) {
  ClusterTag a;
  a.add(ChunkTag::from_bits({0, 1}));
  a.add(ChunkTag::from_bits({0, 2}));
  ClusterTag b;
  b.add(ChunkTag::from_bits({0, 3}));
  b.add(ChunkTag::from_bits({0, 1}));
  // counts a: {0:2, 1:1, 2:1}; b: {0:2, 1:1, 3:1} -> 4 + 1 = 5.
  EXPECT_EQ(a.dot(b), 5u);
}

TEST(ClusterTag, RemoveRestoresCounts) {
  ClusterTag t;
  const auto x = ChunkTag::from_bits({1, 2});
  const auto y = ChunkTag::from_bits({2, 3});
  t.add(x);
  t.add(y);
  t.remove(x);
  EXPECT_EQ(t.count_at(1), 0u);
  EXPECT_EQ(t.count_at(2), 1u);
  EXPECT_EQ(t.distinct_chunks(), 2u);
  t.remove(y);
  EXPECT_TRUE(t.empty());
}

TEST(ClusterTag, RemoveMissingBitThrows) {
  ClusterTag t;
  t.add(ChunkTag::from_bits({1}));
  EXPECT_THROW(t.remove(ChunkTag::from_bits({2})), mlsc::Error);
}

TEST(ClusterTag, PositionsAndEntries) {
  ClusterTag t;
  t.add(ChunkTag::from_bits({4, 9}));
  t.add(ChunkTag::from_bits({4}));
  EXPECT_EQ(t.positions(), (std::vector<std::uint32_t>{4, 9}));
  ASSERT_EQ(t.entries().size(), 2u);
  EXPECT_EQ(t.entries()[0].count, 2u);
  EXPECT_EQ(t.entries()[1].count, 1u);
}

}  // namespace
}  // namespace mlsc::core
