#include "core/baselines.h"

#include <algorithm>

#include "cache/policy.h"
#include "core/access_walk.h"
#include "poly/dependence.h"
#include "support/check.h"

namespace mlsc::core {
namespace {

/// Tile sizes the intra-processor search tries per tiled loop.
constexpr std::int64_t kTileCandidates[] = {8, 16, 32, 64, 128};

/// True when the permuted distance vector is lexicographically positive
/// (or all-zero), i.e. the permutation preserves the dependence.  A "*"
/// component is an unknown sign: legal only if an earlier permuted loop
/// already carries the dependence strictly.
bool permutation_preserves(const poly::Distance& distance,
                           const std::vector<std::size_t>& perm) {
  for (std::size_t k : perm) {
    const auto& d = distance[k];
    if (!d.has_value()) return false;  // unknown sign first: unsafe
    if (*d > 0) return true;
    if (*d < 0) return false;
  }
  return true;  // loop-independent
}

/// Rectangular tiling hoists every tile loop outermost, which reorders
/// iterations across all loops; it is safe when every dependence has
/// only non-negative, known components (then each traversal coordinate
/// is non-decreasing along the dependence).
bool tiling_is_legal(const std::vector<poly::Dependence>& deps) {
  for (const auto& dep : deps) {
    for (const auto& d : dep.distance) {
      if (!d.has_value() || *d < 0) return false;
    }
  }
  return true;
}

/// Divides positions [0, size) into `clients` contiguous blocks and
/// appends one WorkItem per non-empty block.
void append_blocks(std::vector<std::vector<WorkItem>>& client_work,
                   poly::NestId nest_id, const poly::IterationOrder& order,
                   std::uint64_t size, std::size_t clients) {
  for (std::size_t c = 0; c < clients; ++c) {
    const std::uint64_t begin = size * c / clients;
    const std::uint64_t end = size * (c + 1) / clients;
    if (begin == end) continue;
    WorkItem item;
    item.nest = nest_id;
    item.order = order;
    item.ranges = {poly::LinearRange{begin, end}};
    item.iterations = end - begin;
    client_work[c].push_back(std::move(item));
  }
}

/// Bounded-prefix sample size for the locality model.
constexpr std::uint64_t kCostSampleIterations = 16384;

}  // namespace

MappingResult map_original(const poly::Program& program,
                           std::span<const poly::NestId> nests,
                           std::size_t num_clients) {
  MLSC_CHECK(num_clients > 0, "need at least one client");
  MappingResult result;
  result.kind = MapperKind::kOriginal;
  result.mapper_name = "original";
  result.client_work.resize(num_clients);
  for (poly::NestId nest_id : nests) {
    const auto& nest = program.nest(nest_id);
    append_blocks(result.client_work, nest_id,
                  poly::IterationOrder::identity(nest.depth()),
                  nest.space.size(), num_clients);
  }
  return result;
}

double chunk_locality_cost(const poly::Program& program,
                           const DataSpace& space, const poly::LoopNest& nest,
                           const poly::IterationOrder& order,
                           std::size_t cache_chunks) {
  // "We experimented with different tile sizes and selected the one that
  // performs the best" — the selection metric is an LRU simulation of
  // the client-local storage cache over a traversal prefix, counting
  // misses per iteration.
  MLSC_CHECK(cache_chunks > 0, "locality model needs a cache size");
  auto lru = cache::make_policy(cache::PolicyKind::kLru, cache_chunks);

  const poly::LinearRange prefix{
      0, std::min(nest.space.size(), kCostSampleIterations)};
  AccessWalk walk(program, space, nest, order, {&prefix, 1});
  std::uint64_t misses = 0;
  std::uint64_t steps = 0;
  while (!walk.done()) {
    for (const ChunkAccess& access : walk.next()) {
      if (!lru->touch(access.chunk)) {
        ++misses;
        lru->insert(access.chunk);
      }
    }
    ++steps;
  }
  if (steps == 0) return 0.0;
  return static_cast<double>(misses) / static_cast<double>(steps);
}

poly::IterationOrder choose_locality_order(const poly::Program& program,
                                           const DataSpace& space,
                                           const poly::LoopNest& nest,
                                           std::uint64_t client_cache_bytes) {
  const std::size_t depth = nest.depth();
  MLSC_CHECK(depth >= 1, "nest must have at least one loop");
  MLSC_CHECK(depth <= 6, "permutation search limited to 6-deep nests");

  const std::size_t cache_chunks = std::max<std::size_t>(
      1, static_cast<std::size_t>(client_cache_bytes /
                                  space.chunk_size_bytes()));

  std::vector<std::size_t> perm(depth);
  for (std::size_t k = 0; k < depth; ++k) perm[k] = k;

  // Legality: only dependence-preserving transformations are candidates.
  const auto deps = poly::find_dependences(nest);
  const bool may_tile = tiling_is_legal(deps);

  poly::IterationOrder best = poly::IterationOrder::identity(depth);
  double best_cost =
      chunk_locality_cost(program, space, nest, best, cache_chunks);

  auto consider = [&](const poly::IterationOrder& candidate) {
    const double cost =
        chunk_locality_cost(program, space, nest, candidate, cache_chunks);
    if (cost < best_cost) {
      best_cost = cost;
      best = candidate;
    }
  };

  std::sort(perm.begin(), perm.end());
  do {
    const bool legal = std::all_of(
        deps.begin(), deps.end(), [&](const poly::Dependence& dep) {
          return permutation_preserves(dep.distance, perm);
        });
    if (!legal) continue;
    poly::IterationOrder candidate;
    candidate.permutation = perm;
    candidate.tile_sizes.assign(depth, 1);
    consider(candidate);
    // Tile the two innermost permuted loops ("blocking to improve
    // temporal reuse in outer loop positions") with each candidate size.
    if (depth >= 2 && may_tile) {
      for (const std::int64_t tile : kTileCandidates) {
        poly::IterationOrder tiled = candidate;
        const std::size_t inner1 = perm[depth - 1];
        const std::size_t inner2 = perm[depth - 2];
        if (nest.space.loop(inner1).extent() > tile) {
          tiled.tile_sizes[inner1] = tile;
        }
        if (nest.space.loop(inner2).extent() > tile) {
          tiled.tile_sizes[inner2] = tile;
        }
        if (!tiled.is_identity()) consider(tiled);
      }
    }
  } while (std::next_permutation(perm.begin(), perm.end()));

  return best;
}

MappingResult map_intra_processor(const poly::Program& program,
                                  const DataSpace& space,
                                  std::span<const poly::NestId> nests,
                                  std::size_t num_clients,
                                  std::uint64_t client_cache_bytes) {
  MLSC_CHECK(num_clients > 0, "need at least one client");
  MappingResult result;
  result.kind = MapperKind::kIntraProcessor;
  result.mapper_name = "intra-processor";
  result.client_work.resize(num_clients);
  for (poly::NestId nest_id : nests) {
    const auto& nest = program.nest(nest_id);
    const auto order =
        choose_locality_order(program, space, nest, client_cache_bytes);
    append_blocks(result.client_work, nest_id, order, nest.space.size(),
                  num_clients);
  }
  return result;
}

}  // namespace mlsc::core
