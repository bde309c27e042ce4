// The simulated platform: Table 1's parameters, scaled per DESIGN.md §5.
//
// The paper's testbed: 64 client nodes, 32 I/O nodes, 16 storage nodes,
// 2 GB storage cache per node at every layer, 64 KB data chunks and
// stripes, 10k RPM disks, LRU everywhere.  We scale capacities and data
// sizes by 1/64 (keeping their ratio) so the simulation runs at
// workstation scale; node counts and chunk size stay at paper values.
#pragma once

#include <string>

#include "cache/multilevel.h"
#include "io/disk.h"
#include "io/network.h"
#include "topology/hierarchy.h"

namespace mlsc::sim {

struct MachineConfig {
  // Topology (Table 1 defaults).
  std::size_t clients = 64;
  std::size_t io_nodes = 32;
  std::size_t storage_nodes = 16;

  // Per-node storage cache capacities — paper 2 GB each, scaled 1/64.
  std::uint64_t client_cache_bytes = 32 * kMiB;
  std::uint64_t io_cache_bytes = 32 * kMiB;
  std::uint64_t storage_cache_bytes = 32 * kMiB;

  std::uint64_t chunk_size_bytes = 64 * kKiB;
  std::uint64_t stripe_size_bytes = 64 * kKiB;

  cache::PolicyKind policy = cache::PolicyKind::kLru;
  cache::PlacementMode placement = cache::PlacementMode::kAccessBased;

  /// Write-back mode: writes dirty their cached chunk and dirty data
  /// pushed out of the hierarchy is written to disk (charged to the
  /// spindle asynchronously).  Off by default, as in the paper.
  bool write_back = false;

  /// Cooperative caching (the paper's related work [14]): sibling client
  /// caches are probed after a private-cache miss.  Off by default.
  bool cooperative_caching = false;

  /// Sequential readahead depth at the disk level: a miss that reaches
  /// the disk also fetches the next N chunks into the client's path
  /// (asynchronously).  0 disables prefetching (the default).
  std::uint32_t readahead_chunks = 0;

  /// Cache-behavior explanation (DESIGN.md §18): attach the reuse-
  /// distance / miss-classification / interference-attribution observer
  /// to every cache and carry the result in EngineResult::insight.
  /// Off by default — replays cost one null test per cache event.
  bool explain = false;

  io::DiskParams disk;
  io::NetworkParams network;

  /// The Table 1 machine.
  static MachineConfig paper_default() { return MachineConfig{}; }

  /// Builds the finalized storage cache hierarchy tree for this config.
  topology::HierarchyTree build_tree() const;

  /// One-line summary, e.g. "(64,32,16) caches (32MiB,32MiB,32MiB) ...".
  std::string to_string() const;
};

}  // namespace mlsc::sim
