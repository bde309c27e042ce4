// score_shared_pairs, the one all-pairs shared-data scorer behind the
// similarity graph, the greedy merge's initial sweep and the affinity
// forest's candidate edges: its rows must equal a brute-force
// ClusterTag::dot over every pair, at any thread count.  The ChunkGraph
// tests check the similarity graph itself — score_chunk_tags's rows over
// chunk tags — against common_bits and the exhaustive sweep.
#include <gtest/gtest.h>

#include <span>
#include <vector>

#include "core/pair_scorer.h"
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

IterationChunk make_chunk(std::vector<std::uint32_t> bits) {
  IterationChunk c;
  c.tag = ChunkTag::from_bits(std::move(bits));
  return c;
}

/// n random chunk tags of `bits` draws over `width` positions.
std::vector<IterationChunk> random_chunks(std::size_t n, std::uint64_t seed,
                                          std::uint32_t width, int bits) {
  Rng rng(seed);
  std::vector<IterationChunk> chunks;
  chunks.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    std::vector<std::uint32_t> set;
    for (int k = 0; k < bits; ++k) {
      set.push_back(static_cast<std::uint32_t>(rng.next_below(width)));
    }
    chunks.push_back(make_chunk(std::move(set)));
  }
  return chunks;
}

/// exhaustive_similarity_edges regrouped as scorer rows: edge (a, b, w)
/// becomes PairDot{a, w} in row b.  Edges come in (a < b) lexicographic
/// order, so every row stays ascending.
std::vector<std::vector<PairDot>> exhaustive_rows(
    const std::vector<IterationChunk>& chunks) {
  std::vector<std::vector<PairDot>> rows(chunks.size());
  for (const GraphEdge& e : exhaustive_similarity_edges(chunks)) {
    rows[e.b].push_back(PairDot{e.a, e.weight});
  }
  return rows;
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

// The similarity graph of §4.3 has no object of its own: its edges are
// score_chunk_tags's rows, row b holding the partners a < b.
TEST(ChunkGraph, WeightsAreCommonBits) {
  const std::vector<IterationChunk> chunks{
      make_chunk({0, 2, 4}),
      make_chunk({0, 2, 4, 6}),
      make_chunk({1, 3}),
  };
  const auto rows = score_chunk_tags(chunks, nullptr);
  ASSERT_EQ(rows.size(), 3u);
  EXPECT_TRUE(rows[0].empty());  // no self edges
  ASSERT_EQ(rows[1].size(), 1u);
  EXPECT_EQ(rows[1][0].b, 0u);
  EXPECT_EQ(rows[1][0].dot, 3u);
  EXPECT_EQ(rows[1][0].dot, chunks[1].tag.common_bits(chunks[0].tag));
  EXPECT_EQ(chunks[0].tag.common_bits(chunks[1].tag), 3u);  // symmetric
  EXPECT_TRUE(rows[2].empty());  // shares nothing with 0 or 1
}

TEST(ChunkGraph, EdgesOmitZeroWeights) {
  const std::vector<IterationChunk> chunks{
      make_chunk({0}),
      make_chunk({1}),
      make_chunk({0, 1}),
  };
  const auto rows = score_chunk_tags(chunks, nullptr);
  ASSERT_EQ(rows.size(), 3u);
  EXPECT_TRUE(rows[0].empty());
  EXPECT_TRUE(rows[1].empty());  // (0,1) has weight 0
  ASSERT_EQ(rows[2].size(), 2u);  // (0,2) and (1,2) only
  EXPECT_EQ(rows[2][0].b, 0u);
  EXPECT_EQ(rows[2][1].b, 1u);
  EXPECT_EQ(rows[2][0].dot, 1u);
  EXPECT_EQ(rows[2][1].dot, 1u);
  EXPECT_EQ(exhaustive_similarity_edges(chunks).size(), 2u);
}

TEST(ChunkGraph, ParallelSweepMatchesSerial) {
  const auto chunks = random_chunks(300, 7, 128, 6);
  ThreadPool pool(4);
  expect_same_rows(score_chunk_tags(chunks, nullptr),
                   score_chunk_tags(chunks, &pool));
}

TEST(ChunkGraph, CandidateGenerationMatchesExactSweep) {
  // The inverted-index path must produce the exact graph: a pair has
  // nonzero weight iff it shares a data chunk, which is precisely
  // co-occurrence in a posting list.
  for (const std::uint64_t seed : {1u, 2u, 3u}) {
    const auto chunks = random_chunks(400, seed, 96, 5);
    const auto rows = score_chunk_tags(chunks, nullptr);
    expect_same_rows(rows, exhaustive_rows(chunks));
    std::size_t scored = 0;
    for (const auto& row : rows) scored += row.size();
    EXPECT_EQ(scored, exhaustive_similarity_edges(chunks).size());
    EXPECT_LT(scored, 400u * 399u / 2u);
  }
}

TEST(ChunkGraph, CandidatePathParallelMatchesSerial) {
  const auto chunks = random_chunks(500, 23, 128, 6);
  const auto serial = score_chunk_tags(chunks, nullptr);
  ThreadPool one(1);
  ThreadPool four(4);
  expect_same_rows(serial, score_chunk_tags(chunks, &one));
  expect_same_rows(serial, score_chunk_tags(chunks, &four));
}

}  // namespace
}  // namespace mlsc::core
