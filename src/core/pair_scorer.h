// The shared-data pair scorer behind the paper's similarity graph
// (§4.3, initialization step).
//
// The graph's nodes are iteration chunks; the weight of edge (γΛi, γΛj)
// is the number of common "1" bits in Λi ∧ Λj — the amount of data the
// two chunks share at chunk granularity.  Zero-weight pairs get no edge
// (Fig. 8 omits them too).  No graph object is built: its edges are the
// scored pairs.
//
// score_shared_pairs is the one all-pairs kernel (DESIGN.md §15).  Two
// nodes score nonzero only if they share a data chunk, so it reads the
// pairs off a data-chunk inverted index (posting lists of node ids per
// data chunk) and accumulates each row's dot products in one pass,
// instead of enumerating all O(V^2) pairs.  The greedy merge's initial
// sweep and the affinity forest's candidate edges (cluster-tag counts)
// score through it; score_chunk_tags feeds it chunk tags as counts of 1.
//
// exhaustive_similarity_edges is the O(V^2) reference sweep for the
// equivalence tests, the similarity bench and the worked example.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "core/iteration_chunk.h"
#include "core/tag.h"
#include "support/thread_pool.h"

namespace mlsc::core {

/// One scored pair of a scorer row a: the partner b < a and
/// dot(a, b) = Σ count_a[k] · count_b[k] over the positions they share.
struct PairDot {
  std::uint32_t b = 0;
  std::uint64_t dot = 0;
};

/// The all-pairs shared-data scorer.  nodes[v] is node v's (position,
/// count) list sorted by position, counts > 0.  Returns one row per node:
/// row a holds every b < a sharing at least one position with a, in
/// ascending b, with their dot product.  Rows are filled into per-row
/// slots over `pool` (null or a 1-thread pool runs serially), so the
/// result is identical at any thread count.
std::vector<std::vector<PairDot>> score_shared_pairs(
    std::span<const std::span<const ClusterTag::Entry>> nodes,
    ThreadPool* pool);

/// score_shared_pairs over the chunk tags read as 0/1 count vectors, so
/// every dot is ChunkTag::common_bits: the similarity graph's edges,
/// grouped by the larger endpoint.
std::vector<std::vector<PairDot>> score_chunk_tags(
    const std::vector<IterationChunk>& chunks, ThreadPool* pool);

struct GraphEdge {
  std::uint32_t a = 0;
  std::uint32_t b = 0;
  std::uint64_t weight = 0;
};

/// The O(V^2) reference sweep: every nonzero ChunkTag::common_bits pair,
/// in (a < b) lexicographic order.  Serial; for tests, benches and the
/// worked example.
std::vector<GraphEdge> exhaustive_similarity_edges(
    const std::vector<IterationChunk>& chunks);

}  // namespace mlsc::core
