// Trace generation: a MappingResult becomes per-client chunk-access
// streams the engine can replay.
//
// Every iteration emits one access per array reference per covered data
// chunk — the paper's platform issues one MPI-IO request per reference,
// and each request interrogates the storage cache hierarchy.
#pragma once

#include <cstdint>
#include <vector>

#include "core/data_space.h"
#include "core/mapping.h"
#include "support/units.h"

namespace mlsc::sim {

struct Access {
  core::ChunkId chunk = 0;
  bool is_write = false;
};

/// One executed WorkItem: `iterations` consecutive entries of
/// `accesses_per_iteration`, each naming how many entries of `accesses`
/// that iteration consumes.
struct TraceItem {
  std::uint64_t first_iteration = 0;  // index into per-client iteration seq
  std::uint64_t iterations = 0;
  Nanoseconds compute_ns_per_iteration = 0;
};

struct ClientTrace {
  std::vector<Access> accesses;
  std::vector<std::uint8_t> accesses_per_iteration;
  /// Aligned with MappingResult::client_work items (same indices, so
  /// SyncEdges address into it directly).
  std::vector<TraceItem> items;

  std::uint64_t total_iterations() const {
    return accesses_per_iteration.size();
  }
};

struct Trace {
  std::vector<ClientTrace> clients;
  /// r, the data-space chunk count (bounds readahead prefetches).
  std::uint32_t num_data_chunks = 0;
  std::uint64_t total_accesses() const;
};

/// Expands a mapping into traces.  Identity-order items enumerate their
/// rank ranges directly; permuted/tiled items are produced by one shared
/// walk per (nest, order) so the cost stays linear in the nest size.
Trace generate_trace(const poly::Program& program,
                     const core::DataSpace& space,
                     const core::MappingResult& mapping);

}  // namespace mlsc::sim
