#include "core/graph.h"

#include <algorithm>
#include <functional>
#include <limits>
#include <sstream>

#include "obs/metrics.h"
#include "obs/trace.h"
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

ChunkGraph::ChunkGraph(const std::vector<IterationChunk>& chunks,
                       const GraphOptions& options)
    : num_nodes_(chunks.size()) {
  MLSC_CHECK(num_nodes_ <= options.max_nodes,
             "similarity graph limited to " << options.max_nodes
                                            << " nodes (got " << num_nodes_
                                            << ")");
  const std::uint32_t n = static_cast<std::uint32_t>(num_nodes_);
  stats_.total_pairs =
      n == 0 ? 0 : static_cast<std::uint64_t>(n) * (n - 1) / 2;

  obs::Span span("pipeline.candidate_gen");
  span.arg("chunks", static_cast<std::uint64_t>(n));

  // A chunk tag is a 0/1 vector: score it as (position, 1) entries.
  std::vector<ClusterTag::Entry> entries;
  for (const auto& chunk : chunks) {
    for (const std::uint32_t bit : chunk.tag.bits()) {
      entries.push_back(ClusterTag::Entry{bit, 1});
    }
  }
  std::vector<std::span<const ClusterTag::Entry>> nodes;
  nodes.reserve(n);
  std::size_t next = 0;
  for (const auto& chunk : chunks) {
    nodes.emplace_back(entries.data() + next, chunk.tag.bits().size());
    next += chunk.tag.bits().size();
  }
  auto rows = score_shared_pairs(nodes, options.pool);

  // Banding only removes pairs; the kept weights stay exact.
  if (options.banding.enabled()) {
    const std::size_t bands = options.banding.bands;
    std::vector<std::uint64_t> band_keys(static_cast<std::size_t>(n) * bands);
    for_rows(options.pool, n, [&](std::size_t lo, std::size_t hi) {
      for (std::size_t v = lo; v < hi; ++v) {
        minhash_band_keys(chunks[v].tag.bits(), options.banding,
                          band_keys.data() + v * bands);
      }
    });
    for (std::size_t a = 0; a < n; ++a) {
      const std::size_t before = rows[a].size();
      std::erase_if(rows[a], [&](const PairDot& hit) {
        return !minhash_shares_band(band_keys.data() + a * bands,
                                    band_keys.data() + hit.b * bands,
                                    options.banding);
      });
      stats_.banding_pruned += before - rows[a].size();
    }
  }

  // Freeze into the symmetric CSR.  rows[y] lists y's partners x < y
  // ascending; above[x] counts x's partners > x, which follow the
  // partners < x in x's CSR row.
  std::vector<std::size_t> above(n, 0);
  std::size_t num_edges = 0;
  for (std::uint32_t y = 0; y < n; ++y) {
    for (const PairDot& hit : rows[y]) ++above[hit.b];
    num_edges += rows[y].size();
  }
  stats_.scored_pairs = num_edges;
  span.arg("candidate_pairs", stats_.scored_pairs);
  span.arg("pairs_pruned", stats_.banding_pruned);
  MLSC_COUNTER_ADD("graph.candidate_pairs", stats_.scored_pairs);
  MLSC_COUNTER_ADD("graph.pairs_pruned", stats_.banding_pruned);
  span.end();

  row_offsets_.assign(n + 1, 0);
  for (std::uint32_t v = 0; v < n; ++v) {
    row_offsets_[v + 1] = row_offsets_[v] + rows[v].size() + above[v];
  }
  col_.resize(2 * num_edges);
  weight_.resize(2 * num_edges);

  // Visiting y ascending appends each x's partners > x in ascending
  // order, after the partners < x that x's own scorer row wrote.
  std::vector<std::size_t> next_above(n);
  for (std::uint32_t v = 0; v < n; ++v) {
    next_above[v] = row_offsets_[v + 1] - above[v];
  }
  for (std::uint32_t y = 0; y < n; ++y) {
    std::size_t slot = row_offsets_[y];
    for (const PairDot& hit : rows[y]) {
      col_[slot] = hit.b;
      weight_[slot++] = hit.dot;
      col_[next_above[hit.b]] = y;
      weight_[next_above[hit.b]++] = hit.dot;
    }
    rows[y] = {};
  }

  // edges_ in (a < b) lexicographic order: each row's partners > a.
  edges_.reserve(num_edges);
  for (std::uint32_t a = 0; a < n; ++a) {
    for (std::size_t slot = row_offsets_[a + 1] - above[a];
         slot < row_offsets_[a + 1]; ++slot) {
      edges_.push_back(GraphEdge{a, col_[slot], weight_[slot]});
    }
  }
}

std::uint64_t ChunkGraph::weight(std::uint32_t a, std::uint32_t b) const {
  MLSC_DCHECK(a < num_nodes_ && b < num_nodes_, "graph node out of range");
  const auto begin = col_.begin() + row_offsets_[a];
  const auto end = col_.begin() + row_offsets_[a + 1];
  const auto it = std::lower_bound(begin, end, b);
  if (it == end || *it != b) return 0;
  return weight_[static_cast<std::size_t>(it - col_.begin())];
}

std::span<const std::uint32_t> ChunkGraph::neighbors(
    std::uint32_t node) const {
  MLSC_DCHECK(node < num_nodes_, "graph node out of range");
  return {col_.data() + row_offsets_[node],
          row_offsets_[node + 1] - row_offsets_[node]};
}

std::string ChunkGraph::to_dot(const std::vector<IterationChunk>& chunks,
                               std::size_t tag_width) const {
  std::ostringstream out;
  out << "graph iteration_chunks {\n";
  for (std::size_t n = 0; n < num_nodes_; ++n) {
    out << "  g" << n << " [label=\"γ" << n << "\\n"
        << chunks[n].tag.to_string(tag_width) << "\"];\n";
  }
  for (const auto& e : edges_) {
    out << "  g" << e.a << " -- g" << e.b << " [label=\"" << e.weight
        << "\"];\n";
  }
  out << "}\n";
  return out.str();
}

}  // namespace mlsc::core
