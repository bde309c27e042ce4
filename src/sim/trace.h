// Trace generation: a MappingResult becomes per-client replay plans the
// engine walks.
//
// Every iteration issues one access per array reference per covered data
// chunk — the paper's platform issues one MPI-IO request per reference,
// and each request interrogates the storage cache hierarchy.  That stream
// is a pure function of the mapping, so the plan stores none of it: the
// engine walks each work item with a core::AccessWalk when the item runs
// (DESIGN.md §19), and the plan's size follows the item count.
#pragma once

#include <cstdint>
#include <vector>

#include "core/data_space.h"
#include "core/mapping.h"
#include "support/units.h"

namespace mlsc::sim {

/// One WorkItem as the engine executes it: `iterations` iterations, each
/// costing `compute_ns_per_iteration` before its accesses.
struct TraceItem {
  std::uint64_t iterations = 0;
  Nanoseconds compute_ns_per_iteration = 0;
};

struct ClientTrace {
  /// Aligned with MappingResult::client_work items (same indices, so
  /// SyncEdges address into it directly).
  std::vector<TraceItem> items;

  std::uint64_t total_iterations() const;
};

struct Trace {
  std::vector<ClientTrace> clients;
  /// The program and data space the items' accesses resolve against
  /// (not owned; both must outlive every replay of the trace).
  const poly::Program* program = nullptr;
  const core::DataSpace* space = nullptr;
};

/// Plans the replay of `mapping`: per client, each work item's iteration
/// count and compute cost.  O(work items); no access is generated here.
Trace generate_trace(const poly::Program& program,
                     const core::DataSpace& space,
                     const core::MappingResult& mapping);

}  // namespace mlsc::sim
