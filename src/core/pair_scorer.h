// The shared-data pair scorer behind the paper's similarity graph
// (§4.3, initialization step).
//
// The graph's nodes are iteration chunks; the weight of edge (γΛi, γΛj)
// is the number of common "1" bits in Λi ∧ Λj — the amount of data the
// two chunks share at chunk granularity.  Zero-weight pairs get no edge
// (Fig. 8 omits them too).  No graph object is built: its edges are the
// scored pairs.
//
// score_rows is the one posting-accumulation loop (DESIGN.md §15).  Two
// nodes score nonzero only if they share a data chunk, so it reads the
// pairs off a data-chunk inverted index (posting lists of node ids per
// data chunk) and accumulates each row's dot products in one pass,
// instead of enumerating all O(V^2) pairs.  The caller supplies the
// index: score_shared_pairs builds a CSR one and scores every row — the
// greedy merge's initial sweep and the affinity forest's candidate edges
// (cluster-tag counts) score through it, and score_chunk_tags feeds it
// chunk tags as counts of 1 — while the online service (serve/state)
// scores just the rows it needs against one data key's dense posting
// lists.
//
// exhaustive_similarity_edges is the O(V^2) reference sweep for the
// equivalence tests, the similarity bench and the worked example.
#pragma once

#include <algorithm>
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

/// One entry of a posting list: a node holding the position, with its
/// count there.  A posting list of bare node ids reads every count as 1.
struct Posting {
  std::uint32_t node = 0;
  std::uint32_t count = 0;
};

inline std::uint32_t posting_node(const Posting& p) { return p.node; }
inline std::uint32_t posting_count(const Posting& p) { return p.count; }
inline std::uint32_t posting_node(std::uint32_t node) { return node; }
inline std::uint32_t posting_count(std::uint32_t) { return 1; }

/// The row kernel.  For each row a of `rows` (a random-access range of
/// ids below `num_nodes`), `row_lists(a, scan)` calls scan(count_a, list)
/// once per position of a, with a's count there and the position's
/// posting list, node-ascending.  Returns one row per listed id, in
/// `rows` order: every b < a posted beside a, ascending, with dot(a, b)
/// = Σ count_a · count_b over the positions they share.  Rows land in
/// per-row slots over `pool` (null or a 1-thread pool runs serially), so
/// the result is identical at any thread count.
template <typename Rows, typename RowLists>
std::vector<std::vector<PairDot>> score_rows(const Rows& rows,
                                             std::size_t num_nodes,
                                             const RowLists& row_lists,
                                             ThreadPool* pool) {
  std::vector<std::vector<PairDot>> out(rows.size());
  auto score_range = [&](std::size_t lo, std::size_t hi) {
    thread_local std::vector<std::uint64_t> acc;
    thread_local std::vector<std::uint32_t> touched;
    if (acc.size() < num_nodes) acc.resize(num_nodes, 0);
    for (std::size_t i = lo; i < hi; ++i) {
      const std::uint32_t a = rows[i];
      touched.clear();
      row_lists(a, [&](std::uint64_t count_a, const auto& list) {
        for (const auto& p : list) {
          const std::uint32_t b = posting_node(p);
          if (b >= a) break;  // the list is node-ascending
          if (acc[b] == 0) touched.push_back(b);
          acc[b] += count_a * posting_count(p);
        }
      });
      std::sort(touched.begin(), touched.end());
      auto& row = out[i];
      row.reserve(touched.size());
      for (const std::uint32_t b : touched) {
        row.push_back(PairDot{b, acc[b]});
        acc[b] = 0;  // keep the scratch all-zero between rows
      }
    }
  };
  const std::size_t n = rows.size();
  if (pool != nullptr && pool->num_threads() > 1 && n >= 256) {
    // Small grain: row cost is skewed (late rows see more partners), so
    // dynamic claiming of many small chunks evens the load out.
    pool->parallel_for(
        0, n, std::max<std::size_t>(1, n / (pool->num_threads() * 8)),
        score_range);
  } else {
    score_range(0, n);
  }
  return out;
}

/// The all-pairs shared-data scorer: builds a CSR inverted index over
/// `nodes` and runs score_rows over every node.  nodes[v] is node v's
/// (position, count) list sorted by position, counts > 0.  Returns one
/// row per node: row a holds every b < a sharing at least one position
/// with a, in ascending b, with their dot product.
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
