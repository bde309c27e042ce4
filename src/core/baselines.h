// The two comparison schemes of the paper's evaluation (§5.1).
//
// original:        iterations ordered lexicographically (the sequential
//                  order) and divided into K contiguous clusters, one per
//                  client node.
//
// intra-processor: state-of-the-art single-node data locality pass —
//                  loop permutation plus iteration-space tiling with the
//                  best-performing tile size from a candidate search —
//                  followed by the same contiguous division.  It
//                  optimizes each client in isolation and is storage
//                  cache hierarchy agnostic.
#pragma once

#include <span>

#include "core/data_space.h"
#include "core/mapping.h"

namespace mlsc::core {

/// The original scheme: lexicographic order, K equal contiguous blocks.
MappingResult map_original(const poly::Program& program,
                           std::span<const poly::NestId> nests,
                           std::size_t num_clients);

/// The intra-processor scheme: per-nest permutation + tiling chosen by an
/// analytic chunk-locality model, then K equal contiguous blocks of the
/// transformed traversal.  The model simulates a client cache of
/// `client_cache_bytes` (the paper tunes tile sizes for the client-local
/// storage cache); a cache smaller than one chunk counts as one chunk.
MappingResult map_intra_processor(const poly::Program& program,
                                  const DataSpace& space,
                                  std::span<const poly::NestId> nests,
                                  std::size_t num_clients,
                                  std::uint64_t client_cache_bytes);

/// The selection model the intra-processor pass uses: misses per
/// iteration of an LRU client-cache simulation over a traversal prefix
/// (lower is better locality).  Exposed for tests and the ablation
/// bench.  cache_chunks is the simulated client cache size in chunks.
double chunk_locality_cost(const poly::Program& program,
                           const DataSpace& space, const poly::LoopNest& nest,
                           const poly::IterationOrder& order,
                           std::size_t cache_chunks = 512);

/// The order the intra-processor pass would choose for one nest, sized
/// for a client cache of `client_cache_bytes`.
poly::IterationOrder choose_locality_order(const poly::Program& program,
                                           const DataSpace& space,
                                           const poly::LoopNest& nest,
                                           std::uint64_t client_cache_bytes);

}  // namespace mlsc::core
