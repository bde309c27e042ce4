// The multi-level storage cache path over a hierarchy tree.
//
// Each cached tree node owns a StorageCache; a client access walks its
// path toward the root until a cache hits (or the disk is reached), then
// the placement policy decides which caches along the path receive the
// chunk.  The default is the access-based placement the paper's platform
// (OS buffer caches at every layer) implements; eviction-based placement
// (Chen et al.) and exclusive demotion (Wong & Wilkes) are provided for
// the related-work ablations.
#pragma once

#include <memory>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "cache/storage_cache.h"
#include "topology/hierarchy.h"

namespace mlsc::obs {
class HierarchyInsight;
}  // namespace mlsc::obs

namespace mlsc::cache {

enum class PlacementMode {
  /// Fill every cache on the miss path (inclusive-style).  Default.
  kAccessBased,
  /// Fill only the client cache; a chunk enters a lower-level cache when
  /// an upper-level cache evicts it.
  kEvictionBased,
  /// Eviction-based plus invalidate-on-hit at shared levels (exclusive).
  kExclusive,
};

const char* placement_mode_name(PlacementMode mode);

/// Which level an access was served from.
struct AccessResult {
  /// Tree node whose cache hit, or kInvalidNode when served from disk.
  topology::NodeId hit_node = topology::kInvalidNode;
  bool from_disk() const { return hit_node == topology::kInvalidNode; }
  /// True when hit_node is a *sibling* compute node's cache (cooperative
  /// caching) rather than a cache on the client's own path.
  bool peer_hit = false;
  /// Number of caches interrogated before the hit (>= 1 when the client
  /// node carries a cache).
  std::uint32_t caches_probed = 0;
  /// Failed caches on the path that had to be detected and skipped
  /// (each one costs a failover-detection penalty in the engine).
  std::uint32_t failed_probes = 0;
  /// Dirty chunks this access pushed out of the bottom of the hierarchy
  /// (they must be written back to disk).
  std::uint32_t writebacks_to_disk = 0;
};

class MultiLevelCache {
 public:
  /// Builds one cache per tree node with nonzero capacity.  Capacities
  /// are converted to chunks; every cached node must hold at least one.
  MultiLevelCache(const topology::HierarchyTree& tree,
                  std::uint64_t chunk_size_bytes, PolicyKind policy,
                  PlacementMode placement = PlacementMode::kAccessBased);

  /// Processes one chunk access from a client (compute) node.  Writes
  /// mark the chunk dirty in the client's cache when write-back mode is
  /// on; dirty data pushed out of the last cache level is reported in
  /// the result so the engine can charge the disk write.
  AccessResult access(topology::NodeId client, ChunkId chunk,
                      bool is_write = false);

  /// Inserts a chunk along the client's path without counting an access
  /// (used for prefetched data).  Returns disk writebacks it caused.
  std::uint32_t install(topology::NodeId client, ChunkId chunk);

  /// True when the chunk is resident in any cache on the client's path.
  bool resident_on_path(topology::NodeId client, ChunkId chunk) const;

  /// Write-back mode: writes dirty their chunk; dirty evictions cascade
  /// toward the root and finally to disk.  Off by default (the paper
  /// does not model write traffic separately).
  void set_write_back(bool on) { write_back_ = on; }

  /// Cooperative caching: after a client-cache miss, the caches of
  /// sibling compute nodes under the same parent are probed before the
  /// shared levels (Dahlin et al., the paper's [14]).  Off by default.
  void set_cooperative(bool on) { cooperative_ = on; }

  bool has_cache(topology::NodeId node) const {
    return caches_[node] != nullptr;
  }
  const StorageCache& cache(topology::NodeId node) const;

  /// Fail-stop / recovery of one node's cache (fault injection).  Failing
  /// drops the cache's contents (dirty data included — the device lost
  /// it); while failed the cache serves nothing and accepts nothing, and
  /// path walks skip it, counting a failed probe.  Recovery restarts it
  /// cold at its healthy capacity.  No-op on uncached nodes.
  void set_node_failed(topology::NodeId node, bool failed);
  bool node_failed(topology::NodeId node) const {
    return failed_[node] != 0;
  }

  /// Degraded capacity: restarts the node's cache cold at
  /// base_capacity / divisor chunks (at least one).  divisor 1 restores
  /// the healthy capacity.  No-op on uncached nodes.
  void set_node_capacity_divisor(topology::NodeId node, double divisor);

  /// Sums the stats of every cache of the given node kind; with the
  /// layered topology this yields the paper's L1 (compute), L2 (I/O) and
  /// L3 (storage) rows.
  CacheStats aggregate_stats(topology::NodeKind kind) const;

  void reset_stats();

  /// Creates one explanation observer per cached node inside `insight`
  /// (level 1/2/3 from the node kind, the same split aggregate_stats
  /// uses) and wires it into the cache.  `insight` must outlive the
  /// hierarchy; call once per MultiLevelCache.
  void attach_insight(obs::HierarchyInsight& insight);

  const topology::HierarchyTree& tree() const { return tree_; }
  PlacementMode placement() const { return placement_; }
  std::uint64_t chunk_size_bytes() const { return chunk_size_; }

 private:
  /// Inserts into one cache, cascading dirty/eviction-based evictions to
  /// the nearest cached ancestor; counts write-backs that leave the tree.
  void fill(topology::NodeId node, ChunkId chunk, bool dirty,
            std::uint32_t& writebacks);

  /// The cached nodes from `node` up to the root, leaf first (the node
  /// itself included when it carries a cache), failed or not.
  std::span<const topology::NodeId> cached_path(topology::NodeId node) const {
    return {cached_paths_.data() + path_begin_[node],
            cached_paths_.data() + path_begin_[node + 1]};
  }

  const topology::HierarchyTree& tree_;
  std::uint64_t chunk_size_;
  PlacementMode placement_;
  bool write_back_ = false;
  bool cooperative_ = false;
  std::vector<std::unique_ptr<StorageCache>> caches_;  // by node id
  std::vector<char> failed_;                           // by node id
  std::vector<std::size_t> base_chunks_;               // healthy capacity
  // cached_path(n) is cached_paths_[path_begin_[n], path_begin_[n + 1]).
  std::vector<std::uint32_t> path_begin_;
  std::vector<topology::NodeId> cached_paths_;
  // Cached nodes the current access probed and missed; a member so that
  // access() allocates nothing once it has seen the deepest path.
  std::vector<topology::NodeId> missed_;
};

}  // namespace mlsc::cache
