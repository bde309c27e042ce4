#include "core/affinity_forest.h"

#include <algorithm>
#include <atomic>
#include <numeric>
#include <utility>

#include "support/check.h"

namespace mlsc::core {

bool edge_better(const ForestEdge& x, const ForestEdge& y) {
  if (x.score != y.score) return x.score > y.score;
  if (x.u != y.u) return x.u < y.u;
  return x.v < y.v;
}

std::uint32_t uf_find(std::vector<std::uint32_t>& parent, std::uint32_t x) {
  std::uint32_t root = x;
  while (parent[root] != root) root = parent[root];
  while (parent[x] != root) {
    const std::uint32_t next = parent[x];
    parent[x] = root;
    x = next;
  }
  return root;
}

bool uf_union(std::vector<std::uint32_t>& parent, std::uint32_t a,
              std::uint32_t b) {
  const std::uint32_t ra = uf_find(parent, a);
  const std::uint32_t rb = uf_find(parent, b);
  if (ra == rb) return false;
  parent[std::max(ra, rb)] = std::min(ra, rb);
  return true;
}

std::size_t hook_forest(std::vector<ForestEdge> edges,
                        std::vector<std::uint32_t>& parent,
                        std::vector<ForestEdge>& forest, ThreadPool* pool) {
  // Nothing here may scale with the size of `parent`, only with the
  // edges: the service's ids only grow.  ends[e] holds the roots of
  // edges[e]'s endpoints as of the last round; every such root is
  // compressed after hooking, so parent[root] is its current root.
  constexpr std::uint32_t kSlot = 1u << 31;
  constexpr std::uint32_t kNone = UINT32_MAX;
  MLSC_CHECK(parent.size() <= kSlot, "union-find too large for the forest");
  std::vector<std::pair<std::uint32_t, std::uint32_t>> ends(edges.size());
  for (std::size_t e = 0; e < edges.size(); ++e) {
    ends[e] = {uf_find(parent, edges[e].u), uf_find(parent, edges[e].v)};
  }
  std::vector<std::uint32_t> roots;
  std::size_t rounds = 0;
  while (true) {
    // Drop intra-component edges, and collect the roots the rest touch.
    // While picking, each such root's parent entry holds kSlot | its
    // index in the ascending `roots`, so the pick reads its slot from
    // `parent` alone; a marked entry also means "this is a root".
    auto current = [&](std::uint32_t old_root) {
      const std::uint32_t p = parent[old_root];
      return (p & kSlot) != 0 ? old_root : p;
    };
    auto mark = [&](std::uint32_t root) {
      if ((parent[root] & kSlot) == 0) {
        parent[root] = kSlot;
        roots.push_back(root);
      }
    };
    roots.clear();
    std::size_t kept = 0;
    for (std::size_t e = 0; e < edges.size(); ++e) {
      const std::uint32_t ru = current(ends[e].first);
      const std::uint32_t rv = current(ends[e].second);
      if (ru == rv) continue;
      mark(ru);
      mark(rv);
      edges[kept] = edges[e];
      ends[kept++] = {ru, rv};
    }
    edges.resize(kept);
    ends.resize(kept);
    if (edges.empty()) return rounds;
    ++rounds;
    std::sort(roots.begin(), roots.end());
    for (std::uint32_t i = 0; i < roots.size(); ++i) {
      parent[roots[i]] = kSlot | i;
    }

    // Every component picks its best incident edge: a max-reduction over
    // the strict total order, so the pick is independent of visit order.
    std::vector<std::atomic<std::uint32_t>> best(roots.size());
    for (auto& b : best) b.store(kNone, std::memory_order_relaxed);
    auto consider = [&](std::uint32_t root, std::uint32_t idx) {
      std::atomic<std::uint32_t>& slot = best[parent[root] & ~kSlot];
      std::uint32_t cur = slot.load(std::memory_order_relaxed);
      while (cur == kNone || edge_better(edges[idx], edges[cur])) {
        if (slot.compare_exchange_weak(cur, idx, std::memory_order_relaxed)) {
          break;
        }
      }
    };
    auto pick_best = [&](std::size_t lo, std::size_t hi) {
      for (std::size_t e = lo; e < hi; ++e) {
        consider(ends[e].first, static_cast<std::uint32_t>(e));
        consider(ends[e].second, static_cast<std::uint32_t>(e));
      }
    };
    if (pool != nullptr && pool->num_threads() > 1 && edges.size() >= 4096) {
      pool->parallel_for(0, edges.size(), pool->default_grain(edges.size()),
                         pick_best);
    } else {
      pick_best(0, edges.size());
    }
    for (const std::uint32_t root : roots) parent[root] = root;

    // Hook in ascending root order.  The first pick always joins two
    // components, so every round makes progress.
    for (const auto& b : best) {
      const std::uint32_t idx = b.load(std::memory_order_relaxed);
      if (uf_union(parent, ends[idx].first, ends[idx].second)) {
        forest.push_back(edges[idx]);
      }
    }
    for (const std::uint32_t root : roots) uf_find(parent, root);
  }
}

std::vector<std::uint32_t> cut_forest(std::vector<ForestEdge> forest,
                                      std::span<const std::uint32_t> nodes,
                                      std::span<const std::uint64_t> iterations,
                                      std::span<const std::uint64_t> order_keys,
                                      std::size_t target, double slack,
                                      std::uint64_t* cap_skipped) {
  MLSC_CHECK(!nodes.empty() && iterations.size() == nodes.size() &&
                 order_keys.size() == nodes.size(),
             "forest cut needs one iteration count and order key per node");
  MLSC_CHECK(target >= 1, "forest cut target must be at least 1");
  const std::size_t n = std::size_t{nodes.back()} + 1;
  std::vector<std::uint32_t> parent(n);
  std::iota(parent.begin(), parent.end(), 0u);
  std::vector<std::uint64_t> comp_iterations(n, 0);
  std::uint64_t total_iterations = 0;
  for (std::size_t i = 0; i < nodes.size(); ++i) {
    comp_iterations[nodes[i]] = iterations[i];
    total_iterations += iterations[i];
  }

  // Replay the forest best-first.  It is acyclic, so every replayed edge
  // merges two distinct components; skipping a capped merge keeps the
  // union acyclic too.
  const std::uint64_t cap =
      slack < 0.0 ? UINT64_MAX
                  : static_cast<std::uint64_t>(
                        static_cast<double>(total_iterations) /
                        static_cast<double>(target) * (1.0 + slack));
  std::sort(forest.begin(), forest.end(), edge_better);
  std::size_t components = nodes.size();
  std::uint64_t skipped = 0;
  for (const ForestEdge& e : forest) {
    if (components <= target) break;
    const std::uint32_t ru = uf_find(parent, e.u);
    const std::uint32_t rv = uf_find(parent, e.v);
    MLSC_CHECK(ru != rv, "forest edge formed a cycle");
    const std::uint64_t merged = comp_iterations[ru] + comp_iterations[rv];
    if (merged > cap) {
      ++skipped;
      continue;
    }
    uf_union(parent, ru, rv);
    comp_iterations[std::min(ru, rv)] = merged;
    --components;
  }
  if (cap_skipped != nullptr) *cap_skipped = skipped;

  // Leftovers — components the cap stopped or that share no data: merge
  // rank-adjacent (by order key), smallest combined size first, the same
  // fallback the greedy kernel uses.  Smallest-first evens the sizes, so
  // the load balancer has little left to fix.
  if (components > target) {
    struct Comp {
      std::uint32_t root;
      std::uint64_t order_key;
      std::uint64_t iterations;
    };
    std::vector<Comp> comps;
    comps.reserve(components);
    std::vector<std::uint32_t> slot(n);
    for (std::size_t i = 0; i < nodes.size(); ++i) {
      const std::uint32_t root = uf_find(parent, nodes[i]);
      if (root == nodes[i]) {  // the smallest member: first in `nodes`
        slot[root] = static_cast<std::uint32_t>(comps.size());
        comps.push_back(Comp{root, order_keys[i], comp_iterations[root]});
      } else {
        Comp& c = comps[slot[root]];
        c.order_key = std::min(c.order_key, order_keys[i]);
      }
    }
    std::sort(comps.begin(), comps.end(), [](const Comp& x, const Comp& y) {
      if (x.order_key != y.order_key) return x.order_key < y.order_key;
      return x.root < y.root;
    });
    while (comps.size() > target) {
      std::size_t pos = 0;
      std::uint64_t best_size = UINT64_MAX;
      for (std::size_t p = 0; p + 1 < comps.size(); ++p) {
        const std::uint64_t combined =
            comps[p].iterations + comps[p + 1].iterations;
        if (combined < best_size) {
          best_size = combined;
          pos = p;
        }
      }
      uf_union(parent, comps[pos].root, comps[pos + 1].root);
      comps[pos].root = std::min(comps[pos].root, comps[pos + 1].root);
      comps[pos].iterations += comps[pos + 1].iterations;
      comps.erase(comps.begin() + pos + 1);
    }
  }
  return parent;
}

}  // namespace mlsc::core
