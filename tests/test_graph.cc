#include "core/graph.h"

#include <gtest/gtest.h>

#include "support/check.h"
#include "support/rng.h"
#include "support/thread_pool.h"

namespace mlsc::core {
namespace {

IterationChunk make_chunk(std::uint64_t begin,
                          std::vector<std::uint32_t> bits) {
  IterationChunk c;
  c.tag = ChunkTag::from_bits(std::move(bits));
  c.ranges = {poly::LinearRange{begin, begin + 4}};
  c.iterations = 4;
  return c;
}

TEST(ChunkGraph, WeightsAreCommonBits) {
  std::vector<IterationChunk> chunks{
      make_chunk(0, {0, 2, 4}),
      make_chunk(4, {0, 2, 4, 6}),
      make_chunk(8, {1, 3}),
  };
  const ChunkGraph graph(chunks);
  EXPECT_EQ(graph.num_nodes(), 3u);
  EXPECT_EQ(graph.weight(0, 1), 3u);
  EXPECT_EQ(graph.weight(0, 2), 0u);
  EXPECT_EQ(graph.weight(1, 0), 3u);  // symmetric
  EXPECT_EQ(graph.weight(0, 0), 0u);  // no self edges
}

std::vector<std::uint32_t> neighbor_list(const ChunkGraph& graph,
                                         std::uint32_t node) {
  const auto span = graph.neighbors(node);
  return {span.begin(), span.end()};
}

TEST(ChunkGraph, EdgesOmitZeroWeights) {
  std::vector<IterationChunk> chunks{
      make_chunk(0, {0}),
      make_chunk(4, {1}),
      make_chunk(8, {0, 1}),
  };
  const ChunkGraph graph(chunks);
  EXPECT_EQ(graph.edges().size(), 2u);  // (0,2) and (1,2) only
  EXPECT_EQ(neighbor_list(graph, 2), (std::vector<std::uint32_t>{0, 1}));
  EXPECT_EQ(graph.degree(0), 1u);
}

TEST(ChunkGraph, ParallelSweepMatchesSerial) {
  Rng rng(7);
  std::vector<IterationChunk> chunks;
  for (int i = 0; i < 300; ++i) {
    std::vector<std::uint32_t> bits;
    for (int k = 0; k < 6; ++k) {
      bits.push_back(static_cast<std::uint32_t>(rng.next_below(128)));
    }
    chunks.push_back(
        make_chunk(static_cast<std::uint64_t>(i) * 4, std::move(bits)));
  }
  const ChunkGraph serial(chunks);
  ThreadPool pool(4);
  GraphOptions options;
  options.pool = &pool;
  const ChunkGraph parallel(chunks, options);
  ASSERT_EQ(serial.edges().size(), parallel.edges().size());
  for (std::size_t i = 0; i < serial.edges().size(); ++i) {
    EXPECT_EQ(serial.edges()[i].a, parallel.edges()[i].a);
    EXPECT_EQ(serial.edges()[i].b, parallel.edges()[i].b);
    EXPECT_EQ(serial.edges()[i].weight, parallel.edges()[i].weight);
  }
}

TEST(ChunkGraph, LiftsOldNodeCap) {
  // >8192 nodes used to hit a hard MLSC_CHECK; the CSR build handles it.
  std::vector<IterationChunk> chunks;
  chunks.reserve(8300);
  for (std::uint32_t i = 0; i < 8300; ++i) {
    chunks.push_back(make_chunk(static_cast<std::uint64_t>(i) * 4,
                                {i % 64, (i + 1) % 64}));
  }
  const ChunkGraph graph(chunks);
  EXPECT_EQ(graph.num_nodes(), 8300u);
  EXPECT_GT(graph.num_edges(), 0u);
  GraphOptions tight;
  tight.max_nodes = 100;
  EXPECT_THROW(ChunkGraph(chunks, tight), Error);
}

std::vector<IterationChunk> random_chunks(std::size_t n, std::uint64_t seed,
                                          std::size_t width, int bits) {
  Rng rng(seed);
  std::vector<IterationChunk> chunks;
  chunks.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    std::vector<std::uint32_t> set;
    for (int k = 0; k < bits; ++k) {
      set.push_back(static_cast<std::uint32_t>(rng.next_below(width)));
    }
    chunks.push_back(
        make_chunk(static_cast<std::uint64_t>(i) * 4, std::move(set)));
  }
  return chunks;
}

void expect_same_graph(const ChunkGraph& a, const ChunkGraph& b) {
  ASSERT_EQ(a.edges().size(), b.edges().size());
  for (std::size_t i = 0; i < a.edges().size(); ++i) {
    EXPECT_EQ(a.edges()[i].a, b.edges()[i].a);
    EXPECT_EQ(a.edges()[i].b, b.edges()[i].b);
    EXPECT_EQ(a.edges()[i].weight, b.edges()[i].weight);
  }
}

TEST(ChunkGraph, CandidateGenerationMatchesExactSweep) {
  // With banding off, the inverted-index path must produce the exact
  // graph: a pair has nonzero weight iff it shares a data chunk, which is
  // precisely co-occurrence in a posting list.
  for (const std::uint64_t seed : {1u, 2u, 3u}) {
    const auto chunks = random_chunks(400, seed, 96, 5);
    const ChunkGraph candidate(chunks);
    const auto exact = exhaustive_similarity_edges(chunks);
    ASSERT_EQ(candidate.edges().size(), exact.size());
    for (std::size_t i = 0; i < exact.size(); ++i) {
      EXPECT_EQ(candidate.edges()[i].a, exact[i].a);
      EXPECT_EQ(candidate.edges()[i].b, exact[i].b);
      EXPECT_EQ(candidate.edges()[i].weight, exact[i].weight);
      EXPECT_EQ(candidate.weight(exact[i].b, exact[i].a), exact[i].weight);
    }
    std::size_t degree_sum = 0;
    for (std::uint32_t v = 0; v < 400; ++v) degree_sum += candidate.degree(v);
    EXPECT_EQ(degree_sum, 2 * exact.size());
    EXPECT_EQ(candidate.stats().scored_pairs, exact.size());
    EXPECT_LT(candidate.stats().scored_pairs,
              candidate.stats().total_pairs);
    EXPECT_EQ(candidate.stats().total_pairs, 400u * 399u / 2u);
  }
}

TEST(ChunkGraph, BandingProducesSubgraphWithExactWeights) {
  const auto chunks = random_chunks(300, 11, 64, 4);
  const ChunkGraph exact(chunks);
  GraphOptions banded_options;
  banded_options.banding.bands = 4;
  banded_options.banding.rows = 2;
  const ChunkGraph banded(chunks, banded_options);

  // Every banded edge exists in the exact graph with the same weight.
  EXPECT_LE(banded.num_edges(), exact.num_edges());
  for (const GraphEdge& e : banded.edges()) {
    EXPECT_EQ(e.weight, exact.weight(e.a, e.b));
  }
  EXPECT_GT(banded.stats().banding_pruned, 0u);
  EXPECT_EQ(banded.stats().scored_pairs + banded.stats().banding_pruned,
            exact.stats().scored_pairs);
}

TEST(ChunkGraph, CandidatePathParallelMatchesSerial) {
  const auto chunks = random_chunks(500, 23, 128, 6);
  const ChunkGraph serial(chunks);
  ThreadPool pool(4);
  GraphOptions options;
  options.pool = &pool;
  const ChunkGraph parallel(chunks, options);
  expect_same_graph(serial, parallel);
  EXPECT_EQ(serial.stats().scored_pairs, parallel.stats().scored_pairs);

  // Banding keys are computed per chunk, so the pruned set is also
  // thread-count-invariant.
  GraphOptions banded;
  banded.banding.bands = 4;
  banded.banding.rows = 2;
  const ChunkGraph banded_serial(chunks, banded);
  banded.pool = &pool;
  const ChunkGraph banded_parallel(chunks, banded);
  expect_same_graph(banded_serial, banded_parallel);
  EXPECT_EQ(banded_serial.stats().banding_pruned,
            banded_parallel.stats().banding_pruned);
}

TEST(ChunkGraph, DotRendering) {
  std::vector<IterationChunk> chunks{
      make_chunk(0, {0, 1}),
      make_chunk(4, {1, 2}),
  };
  const ChunkGraph graph(chunks);
  const auto dot = graph.to_dot(chunks, 4);
  EXPECT_NE(dot.find("graph iteration_chunks"), std::string::npos);
  EXPECT_NE(dot.find("g0 -- g1"), std::string::npos);
  EXPECT_NE(dot.find("1100"), std::string::npos);  // γ0's tag
}

}  // namespace
}  // namespace mlsc::core
