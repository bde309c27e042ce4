#include "core/clustering.h"

#include <algorithm>
#include <numeric>
#include <span>
#include <utility>

#include "core/affinity_forest.h"
#include "core/pair_scorer.h"
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

/// The greedy merge's order over candidate pairs: the higher
/// average-linkage score first, then the smaller lo, then the smaller
/// hi.  The score is the cluster-tag dot product normalized by the
/// member counts.  The raw bitwise-sum dot grows linearly with cluster
/// size, so once any data chunk is shared universally (a Fock matrix, a
/// catalog) the largest cluster out-bids every genuinely similar pair
/// and the greedy snowballs into one blob.  Normalizing by |a|*|b|
/// measures per-member similarity; on the paper's worked example
/// (Fig. 8) it is what reproduces the Fig. 9 clusters.
struct PairKey {
  double score = -1;  // < 0: no partner (real scores are > 0)
  std::uint32_t lo = 0;
  std::uint32_t hi = 0;

  bool beats(const PairKey& other) const {
    if (score != other.score) return score > other.score;
    if (lo != other.lo) return lo < other.lo;
    return hi < other.hi;
  }
};

/// A cluster's best merge partner: its pair key and the partner's
/// version when the key was scored.
struct BestPartner {
  PairKey key;
  std::uint32_t partner_version = 0;
};

/// Winner tree over cluster ids: each internal node holds the id whose
/// record wins its subtree, so the root is the globally best record in
/// O(1) and a changed record replays one leaf-to-root path in O(log n).
class WinnerTree {
 public:
  explicit WinnerTree(const std::vector<BestPartner>& best) : best_(best) {
    while (leaves_ < best.size()) leaves_ *= 2;
    node_.assign(2 * leaves_, kNone);
    for (std::uint32_t i = 0; i < best.size(); ++i) node_[leaves_ + i] = i;
    for (std::size_t i = leaves_; i-- > 1;) {
      node_[i] = winner(node_[2 * i], node_[2 * i + 1]);
    }
  }

  std::uint32_t top() const { return node_[1]; }

  void update(std::uint32_t id) {
    for (std::size_t i = (leaves_ + id) / 2; i >= 1; i /= 2) {
      node_[i] = winner(node_[2 * i], node_[2 * i + 1]);
    }
  }

 private:
  static constexpr std::uint32_t kNone = UINT32_MAX;

  std::uint32_t winner(std::uint32_t x, std::uint32_t y) const {
    if (x == kNone) return y;
    if (y == kNone) return x;
    return best_[y].key.beats(best_[x].key) ? y : x;
  }

  const std::vector<BestPartner>& best_;
  std::size_t leaves_ = 1;
  std::vector<std::uint32_t> node_;
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
/// kernels (see PairKey for why the dot is normalized).
double average_linkage(std::uint64_t dot, const Cluster& a,
                       const Cluster& b) {
  return static_cast<double>(dot) /
         (static_cast<double>(a.members.size()) *
          static_cast<double>(b.members.size()));
}

struct MergeStats {
  std::uint64_t rescans = 0;          // stale winners rescored
  std::uint64_t fallback_merges = 0;  // zero-sharing merges
  std::uint64_t row_entries = 0;      // partner-row entries read
};

/// The greedy merge: repeatedly merges the alive pair with the best
/// PairKey among those sharing data, else the zero-sharing fallback pair.
///
/// Each cluster keeps one BestPartner record, and a WinnerTree over the
/// records yields the merge.  Invariant: an alive cluster's record key
/// is >= its key with every alive partner, and is exact when the
/// partner is alive at the recorded version.  So an exact winner beats
/// every alive pair, and a stale winner is rescanned and the tree
/// consulted again.  Merging b into a only changes keys of pairs with a
/// or b: the version check catches the records this leaves stale,
/// rescanning a bounds all of a's pairs, and offering (a, c) to every c
/// a shares data with restores the invariant for c.  The merge sequence
/// needs only a's bound; the offers keep partner records exact, which
/// saves rescans.
///
/// Rescans read partner rows, not the tags: row(x) holds (partner,
/// dot(x, partner)) for every cluster x shared data with when the row
/// was written.  Dots are bilinear, dot(a ∪ b, c) = dot(a, c) +
/// dot(b, c), and clusters only ever grow by merging, so a row entry
/// whose partner has since merged counts toward the survivor that holds
/// it now: `into` is a union-find over merges (into[b] = a), and summing
/// a row's dots per resolved survivor gives x's exact dots.  A merge
/// sums row(a) and row(b) into a's new row; a stale rescan only reads
/// x's row.
MergeStats merge_to_count(std::vector<Cluster>& clusters, std::size_t target,
                          ThreadPool* pool) {
  const std::size_t n = clusters.size();
  std::vector<std::uint32_t> into(n);
  std::iota(into.begin(), into.end(), 0u);
  auto alive = [&](std::uint32_t x) { return into[x] == x; };
  std::vector<std::uint32_t> version(n, 0);
  MergeStats stats;

  std::vector<BestPartner> best(n);
  // Raises x's record to `key` unless it already holds a better one.
  // An equal key is the same pair at the same score: taking it
  // refreshes a stale partner version.
  auto offer = [&](std::uint32_t x, const PairKey& key,
                   std::uint32_t partner_version) {
    if (best[x].key.beats(key)) return false;
    best[x] = BestPartner{key, partner_version};
    return true;
  };

  // Initial sweep: score every pair sharing data once and fold each
  // pair into both endpoints' records.  The scorer's row a lists the
  // partners below a; `above` transposes it, listing for each x the
  // later rows that hold x, as (row, index) into the scorer's rows, so
  // x's initial row is its scorer row plus its `above` range without a
  // second copy of every dot.  The scorer's rows stay unchanged until
  // the merge ends; a merge writes the merged cluster's `own` row.
  struct AboveEntry {
    std::uint32_t row = 0;
    std::uint32_t index = 0;
  };
  obs::Span sweep_span("pipeline.similarity_sweep");
  sweep_span.arg("clusters", static_cast<std::uint64_t>(n));
  const auto rows = score_shared_pairs(tag_entries(clusters), pool);
  // Counting into above_at[x + 2] leaves x's start in above_at[x + 1]
  // after the prefix sum, the fill cursor, which the fill advances to
  // x's end.
  std::vector<std::size_t> above_at(n + 2, 0);
  for (std::uint32_t a = 0; a < n; ++a) {
    for (const PairDot& hit : rows[a]) ++above_at[hit.b + 2];
  }
  for (std::size_t x = 2; x < above_at.size(); ++x) {
    above_at[x] += above_at[x - 1];
  }
  std::vector<AboveEntry> above(above_at.back());
  for (std::uint32_t a = 0; a < n; ++a) {
    for (std::uint32_t i = 0; i < rows[a].size(); ++i) {
      const PairDot& hit = rows[a][i];
      const PairKey key{
          average_linkage(hit.dot, clusters[a], clusters[hit.b]), hit.b, a};
      offer(a, key, 0);
      offer(hit.b, key, 0);
      above[above_at[hit.b + 1]++] = AboveEntry{a, i};
    }
  }
  stats.row_entries = above.size();
  sweep_span.arg("candidates", static_cast<std::uint64_t>(above.size()));
  sweep_span.end();
  MLSC_COUNTER_ADD("pipeline.sweep_candidates", above.size());
  WinnerTree tree(best);

  std::vector<bool> has_own(n, false);
  std::vector<std::vector<PairDot>> own(n);

  // Adds y's row into acc per alive partner of x other than x itself,
  // listing each partner once in `touched`.
  std::vector<std::uint64_t> acc(n, 0);
  std::vector<std::uint32_t> touched;
  auto gather = [&](std::uint32_t x, std::uint32_t y) {
    auto add = [&](std::uint32_t partner, std::uint64_t dot) {
      const std::uint32_t c = uf_find(into, partner);
      if (c == x) return;
      if (acc[c] == 0) touched.push_back(c);
      acc[c] += dot;
    };
    if (has_own[y]) {
      stats.row_entries += own[y].size();
      for (const PairDot& e : own[y]) add(e.b, e.dot);
      return;
    }
    stats.row_entries += rows[y].size() + above_at[y + 1] - above_at[y];
    for (const PairDot& e : rows[y]) add(e.b, e.dot);
    for (std::size_t i = above_at[y]; i < above_at[y + 1]; ++i) {
      add(above[i].row, rows[above[i].row][above[i].index].dot);
    }
  };
  // Sets x's record to its exact best partner from the gathered
  // partners.  After a merge (`merged`) they also become x's own row,
  // and each pair (x, c) is offered to c; a stale rescan writes nothing.
  auto settle = [&](std::uint32_t x, bool merged) {
    if (merged) {
      own[x].clear();
      own[x].reserve(touched.size());
      has_own[x] = true;
    }
    BestPartner record;
    for (const std::uint32_t c : touched) {
      const std::uint64_t dot = std::exchange(acc[c], 0);
      const PairKey key{average_linkage(dot, clusters[x], clusters[c]),
                        std::min(x, c), std::max(x, c)};
      if (key.beats(record.key)) record = BestPartner{key, version[c]};
      if (merged) {
        own[x].push_back(PairDot{c, dot});
        if (offer(c, key, version[x])) tree.update(c);
      }
    }
    touched.clear();
    best[x] = record;
    tree.update(x);
  };

  std::size_t alive_count = n;
  while (alive_count > target) {
    const std::uint32_t x = tree.top();
    const PairKey pick = best[x].key;
    if (pick.score < 0) break;  // no alive pair shares data
    const std::uint32_t partner = pick.lo == x ? pick.hi : pick.lo;
    if (!alive(partner) || version[partner] != best[x].partner_version) {
      ++stats.rescans;
      gather(x, x);
      settle(x, false);
      continue;
    }

    const std::uint32_t a = pick.lo;
    const std::uint32_t b = pick.hi;
    MLSC_DEBUG("cluster merge: " << b << " -> " << a
                                 << " (shared-data score " << pick.score
                                 << "), " << clusters[a].members.size()
                                 << "+" << clusters[b].members.size()
                                 << " members, " << alive_count - 1
                                 << " clusters left");
    clusters[a].absorb(std::move(clusters[b]));
    into[b] = a;
    ++version[a];  // invalidates the records that point at a
    --alive_count;
    best[b] = BestPartner{};
    tree.update(b);
    if (alive_count <= target) break;
    // a's new row sums both rows; b's entries in row(a), and a's in
    // row(b), now resolve to a and drop out.
    gather(a, a);
    gather(a, b);
    own[b] = {};
    settle(a, true);
  }

  // Dry tail: no alive pair shares data, and since dots are bilinear,
  // merging zero-dot clusters keeps every dot zero, so the rest of the
  // reduction is the zero-sharing rule.  Each merge absorbs in merge
  // order: member order feeds the next level's tie-breaks.
  if (alive_count > target) {
    std::vector<RankedComponent> comps;
    comps.reserve(alive_count);
    for (std::uint32_t i = 0; i < n; ++i) {
      if (alive(i)) {
        comps.push_back(
            RankedComponent{i, clusters[i].order_key, clusters[i].iterations});
      }
    }
    merge_rank_adjacent(
        std::move(comps), target, [&](std::uint32_t a, std::uint32_t b) {
          MLSC_DEBUG("cluster merge: " << b << " -> " << a
                                       << " (zero-sharing fallback), "
                                       << clusters[a].members.size() << "+"
                                       << clusters[b].members.size()
                                       << " members");
          clusters[a].absorb(std::move(clusters[b]));
          into[b] = a;
          ++stats.fallback_merges;
        });
  }

  std::vector<Cluster> survivors;
  survivors.reserve(target);
  for (std::uint32_t i = 0; i < n; ++i) {
    if (alive(i)) survivors.push_back(std::move(clusters[i]));
  }
  clusters = std::move(survivors);
  return stats;
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
         clusters.size() >= kForestThreshold);
    if (use_forest) {
      forest_to_count(clusters, target, pool);
    } else {
      const MergeStats stats = merge_to_count(clusters, target, pool);
      span.arg("rescans", stats.rescans);
      span.arg("fallback_merges", stats.fallback_merges);
      span.arg("row_entries", stats.row_entries);
      MLSC_COUNTER_ADD("pipeline.clustering_rescans", stats.rescans);
      MLSC_COUNTER_ADD("pipeline.clustering_row_entries", stats.row_entries);
      MLSC_COUNTER_ADD("pipeline.fallback_merges", stats.fallback_merges);
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
