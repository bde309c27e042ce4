// The shared affinity-forest kernel against brute-force oracles: the
// Borůvka hook must build exactly the maximum spanning forest Kruskal
// builds under edge_better (fresh or pre-joined union-find, any thread
// count), and the balance-capped cut must match a relabelling replica of
// its replay + leftover-merge rules.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <numeric>
#include <random>
#include <set>
#include <utility>
#include <vector>

#include "core/affinity_forest.h"
#include "support/thread_pool.h"

namespace mlsc::core {
namespace {

/// `m` distinct random edges over node ids [0, n) with scores drawn from
/// a few values, so most picks are decided by the (u, v) tie-break.
std::vector<ForestEdge> random_graph(std::uint32_t n, std::size_t m,
                                     std::uint32_t seed) {
  std::mt19937 rng(seed);
  std::uniform_int_distribution<std::uint32_t> node(0, n - 1);
  std::uniform_int_distribution<int> score(1, 3);
  std::set<std::pair<std::uint32_t, std::uint32_t>> seen;
  std::vector<ForestEdge> edges;
  while (edges.size() < m) {
    std::uint32_t a = node(rng);
    std::uint32_t b = node(rng);
    if (a == b) continue;
    if (a > b) std::swap(a, b);
    if (!seen.emplace(a, b).second) continue;
    edges.push_back(ForestEdge{static_cast<double>(score(rng)), a, b});
  }
  return edges;
}

/// Kruskal over `edges` from the components `label` (label[x] is x's
/// component id), relabelling on every join.  Returns the chosen edges
/// in edge_better order.
std::vector<ForestEdge> kruskal(std::vector<std::uint32_t> label,
                                std::vector<ForestEdge> edges) {
  std::sort(edges.begin(), edges.end(), edge_better);
  std::vector<ForestEdge> chosen;
  for (const ForestEdge& e : edges) {
    const std::uint32_t lu = label[e.u];
    const std::uint32_t lv = label[e.v];
    if (lu == lv) continue;
    for (std::uint32_t& l : label) {
      if (l == lv) l = lu;
    }
    chosen.push_back(e);
  }
  return chosen;
}

std::vector<std::uint32_t> identity(std::size_t n) {
  std::vector<std::uint32_t> out(n);
  std::iota(out.begin(), out.end(), 0u);
  return out;
}

std::vector<ForestEdge> sorted(std::vector<ForestEdge> edges) {
  std::sort(edges.begin(), edges.end(), edge_better);
  return edges;
}

bool same_edges(const std::vector<ForestEdge>& x,
                const std::vector<ForestEdge>& y) {
  return std::equal(x.begin(), x.end(), y.begin(), y.end(),
                    [](const ForestEdge& a, const ForestEdge& b) {
                      return a.score == b.score && a.u == b.u && a.v == b.v;
                    });
}

TEST(AffinityForest, HookMatchesKruskalOnTiedRandomGraphs) {
  for (std::uint32_t seed = 1; seed <= 20; ++seed) {
    const std::uint32_t n = 20 + seed * 7;
    const std::vector<ForestEdge> edges = random_graph(n, n * 2, seed);
    std::vector<std::uint32_t> parent = identity(n);
    std::vector<ForestEdge> forest;
    const std::size_t rounds = hook_forest(edges, parent, forest);
    EXPECT_GE(rounds, 1u);
    EXPECT_TRUE(same_edges(sorted(forest), kruskal(identity(n), edges)))
        << "seed " << seed;
  }
}

TEST(AffinityForest, HookIsThreadCountInvariantOnTheParallelPick) {
  const std::uint32_t n = 3000;
  const std::vector<ForestEdge> edges = random_graph(n, 12000, 7);
  ASSERT_GE(edges.size(), 4096u);  // the pool only engages from 4096 edges

  std::vector<std::uint32_t> serial_parent = identity(n);
  std::vector<ForestEdge> serial_forest;
  ThreadPool one(1);
  const std::size_t serial_rounds =
      hook_forest(edges, serial_parent, serial_forest, &one);

  std::vector<std::uint32_t> parallel_parent = identity(n);
  std::vector<ForestEdge> parallel_forest;
  ThreadPool four(4);
  const std::size_t parallel_rounds =
      hook_forest(edges, parallel_parent, parallel_forest, &four);

  EXPECT_EQ(serial_rounds, parallel_rounds);
  EXPECT_TRUE(same_edges(serial_forest, parallel_forest));  // append order too
  EXPECT_TRUE(same_edges(sorted(serial_forest), kruskal(identity(n), edges)));
}

TEST(AffinityForest, HookIntoAPreJoinedUnionFindStaysAcyclic) {
  const std::uint32_t n = 200;
  const std::vector<ForestEdge> standing = random_graph(n, 120, 11);
  std::vector<std::uint32_t> parent = identity(n);
  std::vector<ForestEdge> forest;
  hook_forest(standing, parent, forest);
  const std::size_t standing_size = forest.size();

  // Components of the standing forest, as labels, for the oracle.
  std::vector<std::uint32_t> label(n);
  for (std::uint32_t x = 0; x < n; ++x) label[x] = uf_find(parent, x);

  // New edges: some intra-component to the standing forest, some not.
  const std::vector<ForestEdge> arrivals = random_graph(n, 150, 12);
  hook_forest(arrivals, parent, forest);

  const std::vector<ForestEdge> added(forest.begin() + standing_size,
                                      forest.end());
  EXPECT_TRUE(same_edges(sorted(added), kruskal(label, arrivals)));

  // Acyclic: every forest edge joins two distinct components.
  std::vector<std::uint32_t> check = identity(n);
  for (const ForestEdge& e : forest) {
    const std::uint32_t lu = check[e.u];
    const std::uint32_t lv = check[e.v];
    ASSERT_NE(lu, lv) << "cycle at (" << e.u << ", " << e.v << ")";
    for (std::uint32_t& l : check) {
      if (l == lv) l = lu;
    }
  }

  // Components equal those of standing + new edges; roots are smallest
  // members.
  std::vector<ForestEdge> all = standing;
  all.insert(all.end(), arrivals.begin(), arrivals.end());
  std::vector<std::uint32_t> conn = identity(n);
  for (const ForestEdge& e : all) {
    const std::uint32_t lu = conn[e.u];
    const std::uint32_t lv = conn[e.v];
    if (lu == lv) continue;
    for (std::uint32_t& l : conn) {
      if (l == std::max(lu, lv)) l = std::min(lu, lv);
    }
  }
  for (std::uint32_t x = 0; x < n; ++x) {
    EXPECT_EQ(uf_find(parent, x), conn[x]) << "node " << x;
  }
}

/// Relabelling replica of cut_forest: best-first replay skipping merges
/// past the cap, then rank-adjacent smallest-pair leftover merges.
/// Returns each node's component label (its smallest member).
std::vector<std::uint32_t> oracle_cut(
    std::vector<ForestEdge> forest, const std::vector<std::uint32_t>& nodes,
    const std::vector<std::uint64_t>& iterations,
    const std::vector<std::uint64_t>& order_keys, std::size_t target,
    double slack) {
  std::map<std::uint32_t, std::size_t> pos;
  for (std::size_t i = 0; i < nodes.size(); ++i) pos[nodes[i]] = i;
  std::vector<std::uint32_t> label = nodes;
  const std::uint64_t total =
      std::accumulate(iterations.begin(), iterations.end(), std::uint64_t{0});
  auto size_of = [&](std::uint32_t l) {
    std::uint64_t s = 0;
    for (std::size_t i = 0; i < nodes.size(); ++i) {
      if (label[i] == l) s += iterations[i];
    }
    return s;
  };
  auto join = [&](std::uint32_t a, std::uint32_t b) {
    for (std::uint32_t& l : label) {
      if (l == std::max(a, b)) l = std::min(a, b);
    }
  };
  const std::uint64_t cap =
      slack < 0.0 ? UINT64_MAX
                  : static_cast<std::uint64_t>(static_cast<double>(total) /
                                               static_cast<double>(target) *
                                               (1.0 + slack));
  std::sort(forest.begin(), forest.end(), edge_better);
  std::size_t components = nodes.size();
  for (const ForestEdge& e : forest) {
    if (components <= target) break;
    const std::uint32_t lu = label[pos[e.u]];
    const std::uint32_t lv = label[pos[e.v]];
    if (size_of(lu) + size_of(lv) > cap) continue;
    join(lu, lv);
    --components;
  }
  struct Comp {
    std::uint64_t key;
    std::uint32_t label;
  };
  std::vector<Comp> comps;
  for (std::size_t i = 0; i < nodes.size(); ++i) {
    if (label[i] != nodes[i]) continue;
    std::uint64_t key = UINT64_MAX;
    for (std::size_t j = 0; j < nodes.size(); ++j) {
      if (label[j] == nodes[i]) key = std::min(key, order_keys[j]);
    }
    comps.push_back(Comp{key, nodes[i]});
  }
  std::sort(comps.begin(), comps.end(), [](const Comp& x, const Comp& y) {
    return x.key != y.key ? x.key < y.key : x.label < y.label;
  });
  while (comps.size() > target) {
    std::size_t best = 0;
    for (std::size_t p = 1; p + 1 < comps.size(); ++p) {
      if (size_of(comps[p].label) + size_of(comps[p + 1].label) <
          size_of(comps[best].label) + size_of(comps[best + 1].label)) {
        best = p;
      }
    }
    join(comps[best].label, comps[best + 1].label);
    comps[best].label = std::min(comps[best].label, comps[best + 1].label);
    comps.erase(comps.begin() + static_cast<std::ptrdiff_t>(best) + 1);
  }
  return label;
}

TEST(AffinityForest, CutMatchesReplicaAndLeavesTargetSmallestRootComponents) {
  for (std::uint32_t seed = 1; seed <= 12; ++seed) {
    std::mt19937 rng(seed);
    // Sparse ascending ids, as the service's live chunks are.
    const std::uint32_t count = 30 + seed * 3;
    std::vector<std::uint32_t> nodes(count);
    for (std::uint32_t i = 0; i < count; ++i) nodes[i] = 2 * i + (seed % 2);
    std::vector<ForestEdge> graph = random_graph(count, count, seed + 100);
    for (ForestEdge& e : graph) {
      e.u = nodes[e.u];
      e.v = nodes[e.v];
    }
    std::vector<std::uint32_t> labels(nodes.back() + 1);
    std::iota(labels.begin(), labels.end(), 0u);
    const std::vector<ForestEdge> forest = kruskal(labels, graph);

    std::uniform_int_distribution<std::uint64_t> size(1, 40);
    std::uniform_int_distribution<std::uint64_t> key(0, 15);  // tied keys
    std::vector<std::uint64_t> iterations(count);
    std::vector<std::uint64_t> order_keys(count);
    for (std::uint32_t i = 0; i < count; ++i) {
      iterations[i] = size(rng);
      order_keys[i] = key(rng);
    }

    for (const std::size_t target : {std::size_t{1}, std::size_t{3},
                                     std::size_t{count / 2},
                                     std::size_t{count - 1}}) {
      for (const double slack : {kCutBalanceSlack, 0.5, -1.0}) {
        std::vector<std::uint32_t> parent = cut_forest(
            forest, nodes, iterations, order_keys, target, slack);
        ASSERT_EQ(parent.size(), nodes.back() + 1u);
        const std::vector<std::uint32_t> expected =
            oracle_cut(forest, nodes, iterations, order_keys, target, slack);
        std::set<std::uint32_t> roots;
        for (std::size_t i = 0; i < count; ++i) {
          const std::uint32_t root = uf_find(parent, nodes[i]);
          EXPECT_EQ(root, expected[i])
              << "seed " << seed << " target " << target << " slack "
              << slack << " node " << nodes[i];
          EXPECT_LE(root, nodes[i]);
          roots.insert(root);
        }
        EXPECT_EQ(roots.size(), target);
        for (const std::uint32_t root : roots) {
          EXPECT_EQ(uf_find(parent, root), root);
          EXPECT_TRUE(std::binary_search(nodes.begin(), nodes.end(), root));
        }
      }
    }
  }
}

TEST(AffinityForest, CutSkipsReplayedMergesPastTheCap) {
  // A best-first chain 0-1-...-7 of equal-size nodes.  Cap at target 2:
  // 80 / 2 * 1.1 = 44 iterations, so the replay stops each component at
  // four nodes and must skip the 3-4 merge.
  const std::vector<std::uint32_t> nodes = identity(8);
  const std::vector<std::uint64_t> iterations(8, 10);
  const std::vector<std::uint64_t> order_keys = {0, 1, 2, 3, 4, 5, 6, 7};
  std::vector<ForestEdge> chain;
  for (std::uint32_t i = 0; i + 1 < 8; ++i) {
    chain.push_back(ForestEdge{static_cast<double>(100 - i), i, i + 1});
  }

  std::uint64_t skipped = 0;
  std::vector<std::uint32_t> parent =
      cut_forest(chain, nodes, iterations, order_keys, 2, kCutBalanceSlack,
                 &skipped);
  EXPECT_EQ(skipped, 1u);
  for (std::uint32_t x = 0; x < 8; ++x) {
    EXPECT_EQ(uf_find(parent, x), x < 4 ? 0u : 4u) << "node " << x;
  }

  // Negative slack disables the cap: the chain absorbs all but the tail.
  parent = cut_forest(chain, nodes, iterations, order_keys, 2, -1.0, &skipped);
  EXPECT_EQ(skipped, 0u);
  for (std::uint32_t x = 0; x < 8; ++x) {
    EXPECT_EQ(uf_find(parent, x), x < 7 ? 0u : 7u) << "node " << x;
  }
}

TEST(AffinityForest, MergeRankAdjacentRanksByOrderKeyThenId) {
  // Rank order: 3 (key 5), then 1 and 4 (key 7, id breaks the tie), then
  // 0 (key 9).  Combined totals of the adjacent pairs: 3+1 = 6, 1+4 = 6,
  // 4+0 = 7; the leftmost smallest pair (3, 1) merges first, keeping id
  // 1 in its slot with total 6.  Then (1, 4) = 9 and (4, 0) = 7: 4 and 0
  // merge.
  std::vector<std::pair<std::uint32_t, std::uint32_t>> merges;
  merge_rank_adjacent({RankedComponent{0, 9, 4}, RankedComponent{1, 7, 3},
                       RankedComponent{3, 5, 3}, RankedComponent{4, 7, 3}},
                      2, [&](std::uint32_t kept, std::uint32_t absorbed) {
                        merges.emplace_back(kept, absorbed);
                      });
  const std::vector<std::pair<std::uint32_t, std::uint32_t>> expected = {
      {1, 3}, {0, 4}};
  EXPECT_EQ(merges, expected);
}

}  // namespace
}  // namespace mlsc::core
