// The affinity-forest kernel (DESIGN.md §15): the one maximum-spanning-
// forest build and balance-aware cut shared by the offline forest
// clustering (core/clustering) and the online service (serve/state),
// whose standing forest hooks and cuts here and whose patch path merges
// an arrival's leftover components with cut_forest over an empty
// forest.  Both score their candidate edges with the one row kernel,
// core::score_rows (core/pair_scorer.h) — average-linkage dots offline,
// raw shared-bit counts in the service — and hand the edges here.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "support/thread_pool.h"

namespace mlsc::core {

/// Balance-aware cut slack: a merge that would push a component's
/// iteration total above (1 + slack) * (total / target) is skipped, so
/// the cut cannot produce the giant single-linkage chain that the
/// downstream load balancer would have to disassemble one member at a
/// time.  Matches the paper's BThres default.
inline constexpr double kCutBalanceSlack = 0.10;

/// One scored candidate edge, u < v.  (score, u, v) is a strict total
/// order over distinct edges — the tie-break makes every parallel
/// max-reduction deterministic.
struct ForestEdge {
  double score = 0;
  std::uint32_t u = 0;
  std::uint32_t v = 0;
};

/// True when `x` precedes `y`: higher score first, then smaller (u, v).
bool edge_better(const ForestEdge& x, const ForestEdge& y);

/// Union-find with path compression; unions attach the larger root under
/// the smaller, so a component's root is always its smallest member id.
std::uint32_t uf_find(std::vector<std::uint32_t>& parent, std::uint32_t x);
/// Joins the components of `a` and `b`; false when they already match.
bool uf_union(std::vector<std::uint32_t>& parent, std::uint32_t a,
              std::uint32_t b);

/// Borůvka rounds against the caller's union-find `parent` (fresh or
/// already joined): each round every component incident to an
/// inter-component edge picks its best edge under edge_better, and the
/// picks are hooked in ascending root order; each hooked edge is appended
/// to `forest`.  Components at least halve per round.  A round costs
/// O(edges) plus a sort of the roots they touch, whatever the size of
/// `parent` (ids must stay below 2^31).  The pick fans out over `pool`
/// for large edge sets; the result is bit-identical at any thread count.
/// Returns the number of rounds that hooked.
std::size_t hook_forest(std::vector<ForestEdge> edges,
                        std::vector<std::uint32_t>& parent,
                        std::vector<ForestEdge>& forest,
                        ThreadPool* pool = nullptr);

/// Cuts an acyclic `forest` over `nodes` (ascending ids) to `target`
/// components: forest edges are replayed best-first, skipping any merge
/// past the (1 + slack) balance cap (negative slack disables the cap);
/// components still over target merge rank-adjacent by order key (ties
/// to the smaller root), smallest combined iteration total first (ties
/// to the leftmost pair) — with an empty forest, only this leftover
/// rule runs.  `iterations[i]` and `order_keys[i]` describe `nodes[i]`.
/// Returns the union-find over ids [0, nodes.back()] — roots are
/// smallest members — for the caller to materialize; `cap_skipped`, when
/// given, receives the merges the cap refused.
std::vector<std::uint32_t> cut_forest(std::vector<ForestEdge> forest,
                                      std::span<const std::uint32_t> nodes,
                                      std::span<const std::uint64_t> iterations,
                                      std::span<const std::uint64_t> order_keys,
                                      std::size_t target, double slack,
                                      std::uint64_t* cap_skipped = nullptr);

}  // namespace mlsc::core
