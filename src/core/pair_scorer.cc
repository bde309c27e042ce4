#include "core/pair_scorer.h"

#include <algorithm>
#include <functional>
#include <limits>

#include "support/check.h"

namespace mlsc::core {

namespace {

/// Runs body(lo, hi) over [0, n) — on the pool when one is given and the
/// range is worth fanning out, inline otherwise.  Row outputs land in
/// per-row slots, so both paths produce identical results.
void for_rows(ThreadPool* pool, std::size_t n,
              const std::function<void(std::size_t, std::size_t)>& body) {
  if (pool != nullptr && pool->num_threads() > 1 && n >= 256) {
    // Small grain: row cost is skewed (late rows see more partners), so
    // dynamic claiming of many small chunks evens the load out.
    const std::size_t grain =
        std::max<std::size_t>(1, n / (pool->num_threads() * 8));
    pool->parallel_for(0, n, grain, body);
  } else {
    body(0, n);
  }
}

}  // namespace

std::vector<std::vector<PairDot>> score_shared_pairs(
    std::span<const std::span<const ClusterTag::Entry>> nodes,
    ThreadPool* pool) {
  const std::size_t n = nodes.size();
  MLSC_CHECK(n <= std::numeric_limits<std::uint32_t>::max(),
             "pair scorer limited to 2^32 nodes");

  // Inverted index in CSR form: position p's postings are
  // postings[offset[p] .. offset[p+1]), node-ascending because nodes are
  // appended in id order.  Counting into offset[p + 2] makes the prefix
  // sum leave p's start in offset[p + 1], the fill cursor, which the
  // fill then advances to p's end — so no separate cursor array.
  struct Posting {
    std::uint32_t node;
    std::uint32_t count;
  };
  std::size_t width = 0;
  for (const auto& node : nodes) {
    if (!node.empty()) {
      width = std::max<std::size_t>(width, node.back().pos + std::size_t{1});
    }
  }
  std::vector<std::size_t> offset(width + 2, 0);
  for (const auto& node : nodes) {
    for (const ClusterTag::Entry& e : node) ++offset[e.pos + 2];
  }
  for (std::size_t p = 2; p < offset.size(); ++p) offset[p] += offset[p - 1];
  std::vector<Posting> postings(offset.back());
  for (std::uint32_t v = 0; v < n; ++v) {
    for (const ClusterTag::Entry& e : nodes[v]) {
      MLSC_DCHECK(e.count > 0, "pair scorer needs positive counts");
      postings[offset[e.pos + 1]++] = Posting{v, e.count};
    }
  }

  // Row a accumulates dot(a, b) for every b < a on a's postings — the
  // lists are node-ascending, so each scan stops at the first entry >= a.
  std::vector<std::vector<PairDot>> rows(n);
  for_rows(pool, n, [&](std::size_t lo, std::size_t hi) {
    thread_local std::vector<std::uint64_t> acc;
    thread_local std::vector<std::uint32_t> touched;
    if (acc.size() < n) acc.resize(n, 0);
    for (std::size_t a = lo; a < hi; ++a) {
      touched.clear();
      for (const ClusterTag::Entry& e : nodes[a]) {
        const std::uint64_t count_a = e.count;
        const Posting* end = postings.data() + offset[e.pos + 1];
        for (const Posting* p = postings.data() + offset[e.pos];
             p != end && p->node < a; ++p) {
          if (acc[p->node] == 0) touched.push_back(p->node);
          acc[p->node] += count_a * p->count;
        }
      }
      std::sort(touched.begin(), touched.end());
      auto& row = rows[a];
      row.reserve(touched.size());
      for (const std::uint32_t b : touched) {
        row.push_back(PairDot{b, acc[b]});
        acc[b] = 0;  // keep the scratch all-zero between rows
      }
    }
  });
  return rows;
}

std::vector<std::vector<PairDot>> score_chunk_tags(
    const std::vector<IterationChunk>& chunks, ThreadPool* pool) {
  std::vector<ClusterTag::Entry> entries;
  for (const auto& chunk : chunks) {
    for (const std::uint32_t bit : chunk.tag.bits()) {
      entries.push_back(ClusterTag::Entry{bit, 1});
    }
  }
  std::vector<std::span<const ClusterTag::Entry>> nodes;
  nodes.reserve(chunks.size());
  std::size_t next = 0;
  for (const auto& chunk : chunks) {
    nodes.emplace_back(entries.data() + next, chunk.tag.bits().size());
    next += chunk.tag.bits().size();
  }
  return score_shared_pairs(nodes, pool);
}

std::vector<GraphEdge> exhaustive_similarity_edges(
    const std::vector<IterationChunk>& chunks) {
  std::vector<GraphEdge> edges;
  const auto n = static_cast<std::uint32_t>(chunks.size());
  for (std::uint32_t a = 0; a < n; ++a) {
    for (std::uint32_t b = a + 1; b < n; ++b) {
      const std::uint64_t w = chunks[a].tag.common_bits(chunks[b].tag);
      if (w > 0) edges.push_back(GraphEdge{a, b, w});
    }
  }
  return edges;
}

}  // namespace mlsc::core
