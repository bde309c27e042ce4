#include "core/pair_scorer.h"

#include <algorithm>
#include <limits>
#include <ranges>

#include "support/check.h"

namespace mlsc::core {

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

  return score_rows(
      std::views::iota(std::uint32_t{0}, static_cast<std::uint32_t>(n)), n,
      [&](std::uint32_t a, const auto& scan) {
        for (const ClusterTag::Entry& e : nodes[a]) {
          scan(e.count, std::span<const Posting>(
                            postings.data() + offset[e.pos],
                            postings.data() + offset[e.pos + 1]));
        }
      },
      pool);
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
