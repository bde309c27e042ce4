#include "core/dependences.h"

#include <algorithm>
#include <numeric>
#include <set>
#include <unordered_map>

#include "core/affinity_forest.h"
#include "support/check.h"

namespace mlsc::core {
namespace {

/// Lexicographic-rank shift of a constant distance vector: moving an
/// iteration by d moves its rank by sum(d_k * stride_k), modulo bound
/// effects at the edges of the space (the approximation is conservative
/// for dependence purposes when ranges are intersected afterwards).
std::int64_t rank_shift(const poly::IterationSpace& space,
                        const poly::Distance& distance) {
  std::int64_t shift = 0;
  std::int64_t stride = 1;
  for (std::size_t k = space.depth(); k-- > 0;) {
    shift += *distance[k] * stride;
    stride *= space.loop(k).extent();
  }
  return shift;
}

}  // namespace

const char* dependence_strategy_name(DependenceStrategy strategy) {
  switch (strategy) {
    case DependenceStrategy::kMergeClusters:
      return "merge-clusters";
    case DependenceStrategy::kSynchronize:
      return "synchronize";
  }
  return "?";
}

std::vector<ChunkDependence> find_chunk_dependences(
    const poly::Program& program, poly::NestId nest_id,
    std::span<const IterationChunk> chunks) {
  const poly::LoopNest& nest = program.nest(nest_id);
  const auto deps = poly::find_dependences(nest);
  if (deps.empty()) return {};

  // Indices of chunks belonging to this nest, in first-rank order.
  std::vector<std::uint32_t> nest_chunks;
  for (std::uint32_t i = 0; i < chunks.size(); ++i) {
    if (chunks[i].nest == nest_id && !chunks[i].ranges.empty()) {
      nest_chunks.push_back(i);
    }
  }

  // The chunks partition the nest's rank space, so an interval index
  // (sorted range starts -> owning chunk) answers "which chunks overlap
  // [lo, hi)" in O(log + answer).
  struct Interval {
    std::uint64_t begin;
    std::uint64_t end;
    std::uint32_t chunk;
  };
  std::vector<Interval> intervals;
  for (std::uint32_t id : nest_chunks) {
    for (const auto& r : chunks[id].ranges) {
      intervals.push_back(Interval{r.begin, r.end, id});
    }
  }
  std::sort(intervals.begin(), intervals.end(),
            [](const Interval& a, const Interval& b) {
              return a.begin < b.begin;
            });

  std::set<std::pair<std::uint32_t, std::uint32_t>> pairs;
  auto emit = [&](std::uint32_t a, std::uint32_t b) {
    if (a == b) return;
    // Orient producer -> consumer along sequential (rank) order, which
    // is always a legal execution and hence acyclic.
    const bool forward = chunks[a].first_rank() < chunks[b].first_rank();
    pairs.emplace(forward ? a : b, forward ? b : a);
  };

  bool any_unknown = false;
  for (const auto& dep : deps) {
    const bool constant = std::all_of(
        dep.distance.begin(), dep.distance.end(),
        [](const auto& d) { return d.has_value(); });
    if (!constant) {
      any_unknown = true;
      continue;
    }
    const std::int64_t delta = rank_shift(nest.space, dep.distance);
    if (delta == 0) continue;  // loop-independent: stays within a chunk
    for (std::uint32_t a : nest_chunks) {
      for (const auto& r : chunks[a].ranges) {
        const std::int64_t lo = static_cast<std::int64_t>(r.begin) + delta;
        const std::int64_t hi = static_cast<std::int64_t>(r.end) + delta;
        if (hi <= 0) continue;
        const auto ulo = static_cast<std::uint64_t>(std::max<std::int64_t>(
            lo, 0));
        const auto uhi = static_cast<std::uint64_t>(hi);
        // First interval whose end may exceed ulo: binary search on
        // begin, then step back one (intervals are disjoint and sorted).
        auto it = std::upper_bound(
            intervals.begin(), intervals.end(), ulo,
            [](std::uint64_t v, const Interval& iv) { return v < iv.begin; });
        if (it != intervals.begin()) --it;
        for (; it != intervals.end() && it->begin < uhi; ++it) {
          if (it->end > ulo) emit(a, it->chunk);
        }
      }
    }
  }

  if (any_unknown) {
    // Unknown distance: conservatively relate every data-sharing chunk
    // pair of this nest, found via an inverted data-chunk index.
    std::unordered_map<std::uint32_t, std::vector<std::uint32_t>> by_bit;
    for (std::uint32_t id : nest_chunks) {
      for (std::uint32_t bit : chunks[id].tag.bits()) {
        by_bit[bit].push_back(id);
      }
    }
    for (auto& [bit, owners] : by_bit) {
      for (std::size_t x = 0; x < owners.size(); ++x) {
        for (std::size_t y = x + 1; y < owners.size(); ++y) {
          emit(owners[x], owners[y]);
        }
      }
    }
  }

  std::vector<ChunkDependence> out;
  out.reserve(pairs.size());
  for (const auto& [src, dst] : pairs) out.push_back(ChunkDependence{src, dst});
  return out;
}

std::vector<IterationChunk> merge_dependent_chunks(
    std::vector<IterationChunk> chunks,
    const std::vector<ChunkDependence>& deps) {
  std::vector<std::uint32_t> parent(chunks.size());
  std::iota(parent.begin(), parent.end(), 0u);
  for (const auto& dep : deps) uf_union(parent, dep.src, dep.dst);

  std::vector<IterationChunk> merged;
  std::vector<std::int32_t> slot(chunks.size(), -1);
  for (std::uint32_t i = 0; i < chunks.size(); ++i) {
    const std::uint32_t root = uf_find(parent, i);
    if (slot[root] < 0) {
      slot[root] = static_cast<std::int32_t>(merged.size());
      merged.push_back(std::move(chunks[i]));
    } else {
      merged[static_cast<std::size_t>(slot[root])] =
          merge_chunks(merged[static_cast<std::size_t>(slot[root])],
                       chunks[i]);
    }
  }
  return merged;
}

namespace {

struct Location {
  std::uint32_t client = 0;
  std::uint32_t item = 0;
  bool known = false;
};

std::vector<Location> locate_chunks(const MappingResult& mapping) {
  std::vector<Location> where(mapping.chunk_table.size());
  for (std::uint32_t c = 0; c < mapping.client_work.size(); ++c) {
    const auto& items = mapping.client_work[c];
    for (std::uint32_t k = 0; k < items.size(); ++k) {
      if (items[k].chunk >= 0) {
        where[static_cast<std::size_t>(items[k].chunk)] =
            Location{c, k, true};
      }
    }
  }
  return where;
}

/// Simulates per-client sequential execution under the given cross-client
/// edges; true when every item can eventually run (no wait-for cycle).
bool schedule_is_feasible(const MappingResult& mapping,
                          const std::vector<SyncEdge>& edges) {
  const std::size_t n = mapping.client_work.size();
  std::vector<std::size_t> ptr(n, 0);
  std::vector<std::vector<std::vector<const SyncEdge*>>> incoming(n);
  for (std::size_t c = 0; c < n; ++c) {
    incoming[c].resize(mapping.client_work[c].size());
  }
  for (const auto& e : edges) {
    incoming[e.consumer_client][e.consumer_item].push_back(&e);
  }
  bool progress = true;
  while (progress) {
    progress = false;
    for (std::size_t c = 0; c < n; ++c) {
      while (ptr[c] < mapping.client_work[c].size()) {
        const auto& blockers = incoming[c][ptr[c]];
        const bool ready = std::all_of(
            blockers.begin(), blockers.end(), [&](const SyncEdge* e) {
              return ptr[e->producer_client] > e->producer_item;
            });
        if (!ready) break;
        ++ptr[c];
        progress = true;
      }
    }
  }
  for (std::size_t c = 0; c < n; ++c) {
    if (ptr[c] < mapping.client_work[c].size()) return false;
  }
  return true;
}

std::vector<SyncEdge> cross_client_edges(
    const std::vector<ChunkDependence>& deps,
    const std::vector<Location>& where) {
  std::vector<SyncEdge> edges;
  for (const auto& dep : deps) {
    const auto& src = where[dep.src];
    const auto& dst = where[dep.dst];
    if (!src.known || !dst.known) continue;
    if (src.client == dst.client) continue;
    edges.push_back(SyncEdge{src.client, src.item, dst.client, dst.item});
  }
  return edges;
}

/// Stable-sorts every client's items into rank order (nest, then first
/// rank).  Dependences are oriented along rank order, so this order is
/// always cross-client feasible and free of same-client violations.
void sort_items_by_rank(MappingResult& mapping) {
  for (auto& items : mapping.client_work) {
    std::stable_sort(items.begin(), items.end(),
                     [](const WorkItem& a, const WorkItem& b) {
                       if (a.nest != b.nest) return a.nest < b.nest;
                       return a.ranges.front().begin < b.ranges.front().begin;
                     });
  }
}

/// Stable-sorts every client's items into wavefront order: by the
/// position *within* the outermost loop iteration first, then by the
/// outer iteration.  A client owning the same region across outer
/// (time/sweep) iterations then executes it back to back — the reuse
/// pattern the clustering created — while cross-client halo dependences
/// pipeline like a classic wavefront.
void sort_items_wavefront(MappingResult& mapping,
                          const poly::Program& program) {
  for (auto& items : mapping.client_work) {
    std::stable_sort(
        items.begin(), items.end(),
        [&](const WorkItem& a, const WorkItem& b) {
          if (a.nest != b.nest) return a.nest < b.nest;
          const auto& space = program.nest(a.nest).space;
          const std::uint64_t stride =
              space.depth() <= 1
                  ? 1
                  : space.size() /
                        static_cast<std::uint64_t>(space.loop(0).extent());
          const std::uint64_t ra = a.ranges.front().begin;
          const std::uint64_t rb = b.ranges.front().begin;
          if (ra % stride != rb % stride) return ra % stride < rb % stride;
          return ra < rb;
        });
  }
}

/// Fixes same-client producer-after-consumer violations in place with a
/// bounded bubble pass; `where` is updated to the final positions.
void fix_same_client_violations(MappingResult& mapping,
                                const std::vector<ChunkDependence>& deps,
                                std::vector<Location>& where) {
  for (std::uint32_t c = 0; c < mapping.client_work.size(); ++c) {
    auto& items = mapping.client_work[c];
    bool changed = true;
    std::size_t guard = 0;
    while (changed && guard++ < items.size() * items.size() + 1) {
      changed = false;
      for (const auto& dep : deps) {
        const auto& src = where[dep.src];
        const auto& dst = where[dep.dst];
        if (!src.known || !dst.known) continue;
        if (src.client != c || dst.client != c) continue;
        if (src.item > dst.item) {
          std::swap(items[src.item], items[dst.item]);
          std::swap(where[dep.src].item, where[dep.dst].item);
          changed = true;
        }
      }
    }
  }
}

}  // namespace

void insert_sync_edges(MappingResult& mapping,
                       const std::vector<ChunkDependence>& deps,
                       const poly::Program* program) {
  if (deps.empty()) return;
  MLSC_CHECK(mapping.kind == MapperKind::kInterProcessor,
             "sync insertion requires the inter-processor mapping");

  auto where = locate_chunks(mapping);
  fix_same_client_violations(mapping, deps, where);
  auto edges = cross_client_edges(deps, where);
  if (schedule_is_feasible(mapping, edges)) {
    mapping.sync_edges = std::move(edges);
    return;
  }

  // The scheduler's order deadlocks under the dependences.  Try the
  // wavefront order first (keeps the cross-outer-iteration reuse), then
  // the sequential rank order, which is always feasible.
  if (program != nullptr) {
    sort_items_wavefront(mapping, *program);
    where = locate_chunks(mapping);
    fix_same_client_violations(mapping, deps, where);
    edges = cross_client_edges(deps, where);
    if (schedule_is_feasible(mapping, edges)) {
      mapping.sync_edges = std::move(edges);
      return;
    }
  }

  sort_items_by_rank(mapping);
  where = locate_chunks(mapping);
  edges = cross_client_edges(deps, where);
  MLSC_CHECK(schedule_is_feasible(mapping, edges),
             "rank order must always be feasible");
  mapping.sync_edges = std::move(edges);
}

}  // namespace mlsc::core
