// Stage 1 of the hierarchical distribution algorithm (Fig. 5):
// clustering of iteration chunks by cluster-tag dot product, plus the
// split path when a cluster set has fewer clusters than the level's
// fan-out requires.
//
// Two merge kernels are available (DESIGN.md §15):
//   - kGreedy: the paper-faithful greedy agglomerative merge (each
//     cluster's best average-linkage partner under a winner tree).
//     Quality reference; the oracle for equivalence tests.
//   - kForest: the scalable similarity-weighted affinity forest —
//     candidate edges from the shared-data pair scorer
//     (core/pair_scorer.h), a Borůvka-style best-neighbor-hooking
//     maximum-spanning-forest build (parallel over the thread pool), and a cut of the forest to the
//     level's fan-out (single-linkage semantics) — both from
//     core/affinity_forest, shared with the online service.
//     Deterministic at any thread count.
// kAuto (the default) uses the greedy kernel below kForestThreshold
// input clusters and the forest at or above it, so paper-scale inputs
// keep the oracle's bit-exact mappings while large sweeps get the
// sub-quadratic path.
#pragma once

#include <cstdint>
#include <vector>

#include "core/iteration_chunk.h"
#include "core/tag.h"
#include "support/thread_pool.h"

namespace mlsc::core {

/// A cluster of iteration chunks.  `members` index into the shared chunk
/// table; `tag` is the bitwise sum of member tags; `iterations` is
/// S(cα), the total iteration count.
struct Cluster {
  std::vector<std::uint32_t> members;
  ClusterTag tag;
  std::uint64_t iterations = 0;

  /// Minimum (nest, first-rank) key over the members — used to prefer
  /// rank-adjacent merges when clusters share no data, which keeps the
  /// mapping close to the sequential order (and hence disk-sequential)
  /// in sharing-free regions.
  std::uint64_t order_key = UINT64_MAX;

  static std::uint64_t make_order_key(const IterationChunk& chunk);

  static Cluster singleton(std::uint32_t chunk_index,
                           const IterationChunk& chunk);
  void absorb(Cluster&& other);
  void add_member(std::uint32_t chunk_index, const IterationChunk& chunk);
  void remove_member(std::uint32_t chunk_index, const IterationChunk& chunk);
};

/// Wraps each chunk of `indices` in a singleton cluster.
std::vector<Cluster> make_singletons(
    const std::vector<std::uint32_t>& indices,
    const std::vector<IterationChunk>& chunks);

struct ClusterOptions {
  enum class Algorithm {
    /// Greedy below kForestThreshold inputs, affinity forest at or
    /// above.  The default: paper-scale cluster sets keep the greedy
    /// oracle's exact result, large sets get the scalable kernel.
    kAuto,
    /// Always the greedy agglomerative merge (the reference oracle).
    kGreedy,
    /// Always the parallel affinity-forest kernel.
    kForest,
  };
  Algorithm algorithm = Algorithm::kAuto;
};

/// kAuto switches from greedy to the affinity forest at this many input
/// clusters.  It sits above the pipeline's 4096-chunk coarsening cap so
/// every registry workload — at any size factor — keeps the greedy
/// oracle's bit-exact mapping; only direct map_chunks callers with
/// larger tables (benches, library users) cross over.
inline constexpr std::size_t kForestThreshold = 8192;

/// Reduces or expands `clusters` to exactly `target` clusters:
///   - while |clusters| > target, merge by data-sharing affinity — the
///     greedy max-dot-product merge or the affinity-forest cut,
///     per `options` (ties broken deterministically by smaller indices);
///   - while |clusters| < target, split the largest cluster in two —
///     by members when it has several, by splitting the underlying
///     iteration chunk (appending to `chunks`) when it has one.
/// `chunks` may grow; all member indices remain valid.
///
/// Both kernels score the initial pairs with score_shared_pairs
/// (core/pair_scorer.h).
/// Greedy kernel: each cluster keeps its best partner
/// (score, partner, partner version) and a winner tree over clusters
/// yields the best pair.  Each cluster also keeps a partner row of
/// (partner, exact integer dot) entries.  Dots are bilinear, so a merge
/// of b into a sums row(a) and row(b), resolving each entry to the
/// cluster that holds it now through a union-find over merges
/// (into[b] = a); the sum is a's new row, rescores a and is offered to
/// a's partners.  A winner whose partner went stale is rescored once from
/// its own row.  A merge costs O(|row a| + |row b|) plus O(log k) per
/// changed record.
/// Forest kernel: the scored pairs are the candidate edges, and
/// core/affinity_forest's Borůvka rounds hook each component to its
/// best-scoring neighbor; the resulting maximum spanning forest is cut to
/// `target` components in score order, balance-capped at
/// kCutBalanceSlack.
///
/// Both kernels fan the scoring work out over `pool` when one is given;
/// every parallel reduction is over a total order, so the result is
/// bit-identical to the serial run at any thread count.
void cluster_to_count(std::vector<Cluster>& clusters, std::size_t target,
                      std::vector<IterationChunk>& chunks,
                      ThreadPool* pool = nullptr,
                      const ClusterOptions& options = {});

}  // namespace mlsc::core
