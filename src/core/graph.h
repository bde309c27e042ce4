// The iteration-chunk similarity graph (paper §4.3, initialization step)
// and the shared-data pair scorer behind it.
//
// Nodes are iteration chunks; the weight of edge (γΛi, γΛj) is the number
// of common "1" bits in Λi ∧ Λj — the amount of data the two chunks
// share at chunk granularity.  Zero-weight pairs get no edge (Fig. 8
// omits them too).
//
// score_shared_pairs is the one all-pairs kernel (DESIGN.md §15).  Two
// nodes score nonzero only if they share a data chunk, so it reads the
// pairs off a data-chunk inverted index (posting lists of node ids per
// data chunk) and accumulates each row's dot products in one pass,
// instead of enumerating all O(V^2) pairs.  The similarity graph (tags
// as counts of 1), the greedy merge's initial sweep and the affinity
// forest's candidate edges (cluster-tag counts) all score through it.
//
// ChunkGraph scores with it, optionally drops the pairs that agree on no
// minhash band (core/minhash.h — a subgraph with exact weights), and
// freezes the rest into a symmetric CSR adjacency: row offsets plus
// sorted neighbor / weight arrays.  weight() is a binary search in a row
// (O(log degree)) and neighbors() is a zero-copy span over a row.
//
// exhaustive_similarity_edges is the O(V^2) reference sweep for the
// equivalence tests and the similarity bench.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "core/iteration_chunk.h"
#include "core/minhash.h"
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

struct GraphEdge {
  std::uint32_t a = 0;
  std::uint32_t b = 0;
  std::uint64_t weight = 0;
};

/// The O(V^2) reference sweep: every nonzero ChunkTag::common_bits pair,
/// in (a < b) lexicographic order.  Serial; for tests and benches.
std::vector<GraphEdge> exhaustive_similarity_edges(
    const std::vector<IterationChunk>& chunks);

struct GraphOptions {
  /// Upper bound on the node count.  Scoring is output-sensitive and the
  /// CSR is O(V + E); the default admits a million chunks while still
  /// catching accidental explosion.
  std::size_t max_nodes = 1u << 20;

  /// Pool for scoring; null (or a 1-thread pool) runs serially.  Either
  /// way the result is identical — rows are independent.
  ThreadPool* pool = nullptr;

  /// Minhash/LSH banding of the tag bitsets; banding.bands == 0 (the
  /// default) disables it.  When enabled, scored pairs that agree on no
  /// band are dropped.
  MinhashParams banding;
};

/// Construction statistics, for benchmarks and the candidate-pair
/// reduction gate in CI.
struct GraphStats {
  /// All unordered pairs, n*(n-1)/2 — what the exhaustive sweep scores.
  std::uint64_t total_pairs = 0;
  /// Pairs kept as edges: those sharing a data chunk, less any banding
  /// pruned.
  std::uint64_t scored_pairs = 0;
  /// Pairs sharing a data chunk that banding pruned.
  std::uint64_t banding_pruned = 0;

  /// scored / total — the candidate-pair reduction the inverted index
  /// bought (lower is better).
  double reduction_ratio() const {
    return total_pairs == 0
               ? 0.0
               : static_cast<double>(scored_pairs) /
                     static_cast<double>(total_pairs);
  }
};

class ChunkGraph {
 public:
  /// Scores the chunk table with score_shared_pairs, applies banding,
  /// and freezes the result into CSR form.
  explicit ChunkGraph(const std::vector<IterationChunk>& chunks,
                      const GraphOptions& options = {});

  std::size_t num_nodes() const { return num_nodes_; }
  std::size_t num_edges() const { return edges_.size(); }
  const std::vector<GraphEdge>& edges() const { return edges_; }
  const GraphStats& stats() const { return stats_; }

  /// Weight between two nodes; 0 when there is no edge.  O(log degree).
  std::uint64_t weight(std::uint32_t a, std::uint32_t b) const;

  /// Neighbors of a node with nonzero weight, ascending, as a view over
  /// the CSR row (no allocation).  Valid until the graph is destroyed.
  std::span<const std::uint32_t> neighbors(std::uint32_t node) const;

  std::size_t degree(std::uint32_t node) const {
    return neighbors(node).size();
  }

  /// Graphviz dot rendering (used by the paper example).
  std::string to_dot(const std::vector<IterationChunk>& chunks,
                     std::size_t tag_width) const;

 private:
  std::size_t num_nodes_ = 0;
  GraphStats stats_;

  // Symmetric CSR adjacency: row v is
  // col_[row_offsets_[v] .. row_offsets_[v+1]), sorted ascending, with a
  // parallel weight_ array.
  std::vector<std::size_t> row_offsets_;
  std::vector<std::uint32_t> col_;
  std::vector<std::uint64_t> weight_;

  std::vector<GraphEdge> edges_;  // nonzero edges, (a < b) lexicographic
};

}  // namespace mlsc::core
