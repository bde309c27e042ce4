#include "core/clustering.h"

#include <algorithm>
#include <numeric>
#include <queue>
#include <span>
#include <unordered_map>

#include "core/affinity_forest.h"
#include "core/graph.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "support/check.h"
#include "support/log.h"

namespace mlsc::core {

std::uint64_t Cluster::make_order_key(const IterationChunk& chunk) {
  // (nest, first rank) packed so nests sort before ranks; ranks stay
  // below 2^48 for any tractable nest.
  return (static_cast<std::uint64_t>(chunk.nest) << 48) |
         (chunk.first_rank() & ((std::uint64_t{1} << 48) - 1));
}

Cluster Cluster::singleton(std::uint32_t chunk_index,
                           const IterationChunk& chunk) {
  Cluster c;
  c.add_member(chunk_index, chunk);
  return c;
}

void Cluster::absorb(Cluster&& other) {
  members.insert(members.end(), other.members.begin(), other.members.end());
  tag.add(other.tag);
  iterations += other.iterations;
  order_key = std::min(order_key, other.order_key);
  other = Cluster{};
}

void Cluster::add_member(std::uint32_t chunk_index,
                         const IterationChunk& chunk) {
  members.push_back(chunk_index);
  tag.add(chunk.tag);
  iterations += chunk.iterations;
  order_key = std::min(order_key, make_order_key(chunk));
}

void Cluster::remove_member(std::uint32_t chunk_index,
                            const IterationChunk& chunk) {
  auto it = std::find(members.begin(), members.end(), chunk_index);
  MLSC_CHECK(it != members.end(),
             "chunk " << chunk_index << " is not a member of this cluster");
  members.erase(it);
  tag.remove(chunk.tag);
  MLSC_CHECK(iterations >= chunk.iterations, "cluster size underflow");
  iterations -= chunk.iterations;
}

std::vector<Cluster> make_singletons(
    const std::vector<std::uint32_t>& indices,
    const std::vector<IterationChunk>& chunks) {
  std::vector<Cluster> out;
  out.reserve(indices.size());
  for (std::uint32_t idx : indices) {
    MLSC_CHECK(idx < chunks.size(), "chunk index out of range");
    out.push_back(Cluster::singleton(idx, chunks[idx]));
  }
  return out;
}

namespace {

/// One candidate merge, with the versions of both clusters at the time
/// the score was computed (lazy invalidation).
///
/// The score is the cluster-tag dot product normalized by the member
/// counts (average linkage).  The raw bitwise-sum dot grows linearly
/// with cluster size, so once any data chunk is shared universally (a
/// Fock matrix, a catalog) the largest cluster out-bids every genuinely
/// similar pair and the greedy snowballs into one blob.  Normalizing by
/// |a|*|b| measures per-member similarity; on the paper's worked example
/// (Fig. 8) it is what reproduces the Fig. 9 clusters.
struct MergeCandidate {
  double score = 0;
  std::uint32_t a = 0;
  std::uint32_t b = 0;
  std::uint32_t version_a = 0;
  std::uint32_t version_b = 0;

  /// Max-heap by score; deterministic tie-break toward smaller indices.
  bool operator<(const MergeCandidate& other) const {
    if (score != other.score) return score < other.score;
    if (a != other.a) return a > other.a;
    return b > other.b;
  }
};

/// Each cluster's (position, count) tag entries, the scorer's input.
std::vector<std::span<const ClusterTag::Entry>> tag_entries(
    const std::vector<Cluster>& clusters) {
  std::vector<std::span<const ClusterTag::Entry>> out;
  out.reserve(clusters.size());
  for (const Cluster& c : clusters) out.emplace_back(c.tag.entries());
  return out;
}

/// The average-linkage score dot(a, b) / (|a| * |b|), shared by both
/// kernels (see MergeCandidate for why the dot is normalized).
double average_linkage(std::uint64_t dot, const Cluster& a,
                       const Cluster& b) {
  return static_cast<double>(dot) /
         (static_cast<double>(a.members.size()) *
          static_cast<double>(b.members.size()));
}

void merge_to_count(std::vector<Cluster>& clusters, std::size_t target,
                    ThreadPool* pool) {
  const std::size_t n = clusters.size();
  std::vector<bool> alive(n, true);
  std::vector<std::uint32_t> version(n, 0);
  std::priority_queue<MergeCandidate> heap;

  // Versioned inverted index for re-scoring a merged cluster: data chunk
  // -> (cluster, per-chunk count, version).  The merged cluster's dots
  // against every partner accumulate in one pass over its postings
  // (dot(a,c) = sum over shared chunks of count_a * count_c).  Entries
  // go stale when their cluster merges (its version bumps) and are
  // compacted away on the next scan.
  struct IndexEntry {
    std::uint32_t cluster;
    std::uint32_t count;
    std::uint32_t version;
  };
  std::unordered_map<std::uint32_t, std::vector<IndexEntry>> bit_index;
  auto index_cluster = [&](std::uint32_t id) {
    for (const auto& entry : clusters[id].tag.entries()) {
      bit_index[entry.pos].push_back(
          IndexEntry{id, entry.count, version[id]});
    }
  };

  std::vector<std::uint64_t> acc(n, 0);
  std::vector<std::uint32_t> touched;
  auto push_candidates = [&](std::uint32_t a) {
    touched.clear();
    for (const auto& tag_entry : clusters[a].tag.entries()) {
      auto it = bit_index.find(tag_entry.pos);
      if (it == bit_index.end()) continue;
      const std::uint64_t ca = tag_entry.count;
      // Compact stale entries while scanning.
      auto& list = it->second;
      std::size_t w = 0;
      for (std::size_t r = 0; r < list.size(); ++r) {
        const IndexEntry& e = list[r];
        if (!alive[e.cluster] || version[e.cluster] != e.version) continue;
        list[w++] = e;
        if (e.cluster == a) continue;
        if (acc[e.cluster] == 0) touched.push_back(e.cluster);
        acc[e.cluster] += ca * e.count;
      }
      list.resize(w);
    }
    for (std::uint32_t b : touched) {
      const std::uint32_t lo = std::min(a, b);
      const std::uint32_t hi = std::max(a, b);
      heap.push(
          MergeCandidate{average_linkage(acc[b], clusters[a], clusters[b]),
                         lo, hi, version[lo], version[hi]});
      acc[b] = 0;
    }
  };
  // Initial sweep: score every pair sharing data once, then index every
  // cluster (version 0) for the re-scoring of merged clusters below.
  // Rows are pushed in a order; the candidate comparator is a total
  // order, so the merge sequence does not depend on push order anyway.
  obs::Span sweep_span("pipeline.similarity_sweep");
  sweep_span.arg("clusters", static_cast<std::uint64_t>(n));
  {
    const auto rows = score_shared_pairs(tag_entries(clusters), pool);
    for (std::uint32_t a = 0; a < n; ++a) {
      for (const PairDot& hit : rows[a]) {
        heap.push(MergeCandidate{
            average_linkage(hit.dot, clusters[a], clusters[hit.b]), hit.b, a,
            0, 0});
      }
      index_cluster(a);
    }
  }
  sweep_span.arg("candidates", static_cast<std::uint64_t>(heap.size()));
  sweep_span.end();
  MLSC_COUNTER_ADD("pipeline.sweep_candidates", heap.size());

  // Zero-sharing fallback order, built lazily the first time the heap
  // runs dry.  Every alive pair with a nonzero dot always has a valid
  // heap entry (init scores all pairs; each merge re-scores the merged
  // cluster), so an empty heap means *no* alive pair shares data — and
  // since dots are bilinear, merging zero-dot clusters keeps every dot
  // zero.  The fallback list can therefore be maintained incrementally
  // instead of re-sorted per merge: it stays sorted by order_key because
  // the merged cluster keeps the smaller key of the adjacent pair.
  std::vector<std::uint32_t> fallback_ids;

  std::size_t alive_count = n;
  while (alive_count > target) {
    MergeCandidate best;
    bool found = false;
    while (!heap.empty()) {
      best = heap.top();
      heap.pop();
      if (alive[best.a] && alive[best.b] &&
          version[best.a] == best.version_a &&
          version[best.b] == best.version_b) {
        found = true;
        break;
      }
    }
    std::size_t fallback_pos = 0;
    if (!found) {
      // All remaining pairs share no data.  With zero sharing, cache
      // behaviour is indifferent to the grouping, but disk behaviour is
      // not: merge the rank-adjacent pair with the smallest combined
      // size, which keeps the mapping close to the sequential order
      // (sequential on disk) and balanced.
      if (fallback_ids.empty()) {
        for (std::uint32_t i = 0; i < n; ++i) {
          if (alive[i]) fallback_ids.push_back(i);
        }
        std::sort(fallback_ids.begin(), fallback_ids.end(),
                  [&](std::uint32_t x, std::uint32_t y) {
                    return clusters[x].order_key < clusters[y].order_key;
                  });
      }
      MLSC_CHECK(fallback_ids.size() >= 2, "fewer than two clusters alive");
      std::uint64_t best_size = UINT64_MAX;
      for (std::size_t p = 0; p + 1 < fallback_ids.size(); ++p) {
        const std::uint64_t combined =
            clusters[fallback_ids[p]].iterations +
            clusters[fallback_ids[p + 1]].iterations;
        if (combined < best_size) {
          best_size = combined;
          fallback_pos = p;
        }
      }
      best.a = std::min(fallback_ids[fallback_pos],
                        fallback_ids[fallback_pos + 1]);
      best.b = std::max(fallback_ids[fallback_pos],
                        fallback_ids[fallback_pos + 1]);
    }

    MLSC_DEBUG("cluster merge: "
               << best.b << " -> " << best.a
               << (found ? " (shared-data score " : " (zero-sharing fallback")
               << (found ? std::to_string(best.score) : std::string())
               << "), " << clusters[best.a].members.size() << "+"
               << clusters[best.b].members.size() << " members, "
               << alive_count - 1 << " clusters left");
    clusters[best.a].absorb(std::move(clusters[best.b]));
    alive[best.b] = false;
    ++version[best.a];  // invalidates a's and the pair's old index entries
    --alive_count;

    if (alive_count <= target) break;
    if (!found) {
      // The merged cluster takes the pair's slot (its order_key is the
      // pair's minimum, i.e. the key already at fallback_pos).  No
      // re-scoring: the heap is permanently dry in fallback mode.
      fallback_ids[fallback_pos] = best.a;
      fallback_ids.erase(fallback_ids.begin() + fallback_pos + 1);
      continue;
    }
    push_candidates(best.a);  // uses the merged tag's counts
    index_cluster(best.a);    // re-index under the new version
  }

  std::vector<Cluster> survivors;
  survivors.reserve(target);
  for (std::uint32_t i = 0; i < n; ++i) {
    if (alive[i]) survivors.push_back(std::move(clusters[i]));
  }
  clusters = std::move(survivors);
}

// ---------------------------------------------------------------------------
// Affinity-forest clustering (DESIGN.md §15): the scalable replacement
// for the greedy merge heap.  Candidate edges between clusters come from
// the data-chunk inverted index (only pairs sharing a data chunk can have
// a nonzero dot product); core/affinity_forest builds the maximum
// spanning forest and cuts it to `target` components.

/// Scores every cluster pair that shares at least one data chunk.
/// Edges come out grouped by the larger endpoint ascending, then by the
/// smaller — a deterministic order.
std::vector<ForestEdge> forest_candidate_edges(
    const std::vector<Cluster>& clusters, ThreadPool* pool) {
  const std::size_t n = clusters.size();
  obs::Span span("pipeline.candidate_gen");
  span.arg("clusters", static_cast<std::uint64_t>(n));

  auto rows = score_shared_pairs(tag_entries(clusters), pool);
  std::size_t total = 0;
  for (const auto& row : rows) total += row.size();
  std::vector<ForestEdge> edges;
  edges.reserve(total);
  for (std::uint32_t a = 0; a < n; ++a) {
    for (const PairDot& hit : rows[a]) {
      edges.push_back(ForestEdge{
          average_linkage(hit.dot, clusters[a], clusters[hit.b]), hit.b, a});
    }
    rows[a] = {};
  }
  span.arg("candidate_pairs", static_cast<std::uint64_t>(edges.size()));
  span.end();
  MLSC_COUNTER_ADD("graph.candidate_pairs", edges.size());
  return edges;
}

void forest_to_count(std::vector<Cluster>& clusters, std::size_t target,
                     ThreadPool* pool) {
  const std::size_t n = clusters.size();
  obs::Span span("pipeline.affinity_forest");
  span.arg("clusters", static_cast<std::uint64_t>(n));
  span.arg("target", static_cast<std::uint64_t>(target));

  std::vector<std::uint32_t> parent(n);
  std::iota(parent.begin(), parent.end(), 0u);
  std::vector<ForestEdge> forest;
  forest.reserve(n - 1);
  const std::size_t rounds =
      hook_forest(forest_candidate_edges(clusters, pool), parent,
                  forest, pool);
  const std::size_t forest_edges = forest.size();

  std::vector<std::uint32_t> nodes(n);
  std::iota(nodes.begin(), nodes.end(), 0u);
  std::vector<std::uint64_t> iterations(n);
  std::vector<std::uint64_t> order_keys(n);
  for (std::uint32_t i = 0; i < n; ++i) {
    iterations[i] = clusters[i].iterations;
    order_keys[i] = clusters[i].order_key;
  }
  std::uint64_t cut_skipped = 0;
  parent = cut_forest(std::move(forest), nodes, iterations, order_keys, target,
                      kCutBalanceSlack, &cut_skipped);
  span.arg("rounds", static_cast<std::uint64_t>(rounds));
  span.arg("forest_edges", static_cast<std::uint64_t>(forest_edges));
  span.arg("cut_skipped", cut_skipped);

  // Materialize: members grouped by component, components emitted in
  // ascending root (== smallest member) order — the same deterministic
  // shape the greedy kernel produces.
  std::vector<std::vector<std::uint32_t>> groups(n);
  for (std::uint32_t i = 0; i < n; ++i) {
    groups[uf_find(parent, i)].push_back(i);
  }
  std::vector<Cluster> result;
  result.reserve(target);
  for (std::uint32_t root = 0; root < n; ++root) {
    if (groups[root].empty()) continue;
    Cluster merged = std::move(clusters[groups[root].front()]);
    for (std::size_t m = 1; m < groups[root].size(); ++m) {
      merged.absorb(std::move(clusters[groups[root][m]]));
    }
    result.push_back(std::move(merged));
  }
  MLSC_CHECK(result.size() == target,
             "affinity forest produced " << result.size()
                                         << " clusters, wanted " << target);
  clusters = std::move(result);
}

/// Splits one cluster into two of roughly equal iteration counts.  A
/// multi-member cluster is split by members (greedy first-fit descending,
/// keeping shared-data members together is secondary to balance here,
/// mirroring Fig. 5 which only splits for count, not affinity).  A
/// single-member cluster splits its iteration chunk in half, growing the
/// chunk table.
std::pair<Cluster, Cluster> split_cluster(Cluster cluster,
                                          std::vector<IterationChunk>& chunks) {
  Cluster left;
  Cluster right;
  if (cluster.members.size() == 1) {
    const std::uint32_t original = cluster.members.front();
    MLSC_CHECK(chunks[original].iterations >= 2,
               "cannot split a single-iteration chunk");
    auto [head, tail] =
        split_chunk(chunks[original], chunks[original].iterations / 2);
    chunks[original] = std::move(head);
    chunks.push_back(std::move(tail));
    left.add_member(original, chunks[original]);
    right.add_member(static_cast<std::uint32_t>(chunks.size() - 1),
                     chunks.back());
    return {std::move(left), std::move(right)};
  }

  std::sort(cluster.members.begin(), cluster.members.end(),
            [&](std::uint32_t x, std::uint32_t y) {
              if (chunks[x].iterations != chunks[y].iterations) {
                return chunks[x].iterations > chunks[y].iterations;
              }
              return x < y;
            });
  for (std::uint32_t member : cluster.members) {
    Cluster& smaller = left.iterations <= right.iterations ? left : right;
    smaller.add_member(member, chunks[member]);
  }
  return {std::move(left), std::move(right)};
}

}  // namespace

void cluster_to_count(std::vector<Cluster>& clusters, std::size_t target,
                      std::vector<IterationChunk>& chunks,
                      ThreadPool* pool, const ClusterOptions& options) {
  MLSC_CHECK(target >= 1, "target cluster count must be at least 1");
  MLSC_CHECK(!clusters.empty(), "cannot cluster an empty set");

  obs::Span span("pipeline.clustering");
  span.arg("input_clusters", static_cast<std::uint64_t>(clusters.size()));
  span.arg("target", static_cast<std::uint64_t>(target));
  MLSC_COUNTER_INC("pipeline.clustering_calls");

  if (clusters.size() > target) {
    const bool use_forest =
        options.algorithm == ClusterOptions::Algorithm::kForest ||
        (options.algorithm == ClusterOptions::Algorithm::kAuto &&
         clusters.size() >= options.forest_threshold);
    if (use_forest) {
      forest_to_count(clusters, target, pool);
    } else {
      merge_to_count(clusters, target, pool);
    }
  }
  while (clusters.size() < target) {
    // Select the largest cluster (by iterations) and break it in two.
    std::size_t largest = 0;
    for (std::size_t i = 1; i < clusters.size(); ++i) {
      if (clusters[i].iterations > clusters[largest].iterations) largest = i;
    }
    MLSC_CHECK(clusters[largest].iterations >= 2,
               "not enough iterations to form " << target << " clusters");
    auto [left, right] = split_cluster(std::move(clusters[largest]), chunks);
    clusters[largest] = std::move(left);
    clusters.push_back(std::move(right));
  }
}

}  // namespace mlsc::core
