// The storage cache hierarchy tree (paper §4.3, Fig. 1 and Fig. 7).
//
// Leaves are compute (client) nodes; interior nodes are I/O and storage
// nodes; when a system has several storage nodes a dummy root stands for
// a hypothetical unified last level.  Every node can carry a storage
// cache.  The mapping algorithm walks this tree from root to leaves,
// splitting iteration clusters by node fan-out, and the simulator routes
// each client's accesses along its path to the root.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "support/units.h"

namespace mlsc::topology {

using NodeId = std::uint32_t;
inline constexpr NodeId kInvalidNode = static_cast<NodeId>(-1);

enum class NodeKind { kDummyRoot, kStorage, kIo, kCompute };

const char* node_kind_name(NodeKind kind);

struct TreeNode {
  NodeKind kind = NodeKind::kCompute;
  NodeId parent = kInvalidNode;
  std::vector<NodeId> children;
  std::uint32_t level = 0;  // root is level 0
  std::string name;

  /// Storage cache capacity at this node; 0 means no cache here (e.g. the
  /// dummy root).
  std::uint64_t cache_capacity_bytes = 0;
};

class HierarchyTree {
 public:
  /// Creates a tree containing only the root.
  HierarchyTree(NodeKind root_kind, std::uint64_t root_cache_bytes,
                std::string root_name);

  /// Adds a child under `parent`; returns the new node's id.
  NodeId add_child(NodeId parent, NodeKind kind, std::uint64_t cache_bytes,
                   std::string name);

  NodeId root() const { return 0; }
  std::size_t num_nodes() const { return nodes_.size(); }
  const TreeNode& node(NodeId id) const;

  /// Number of tree levels (root at level 0 counts as one).
  std::uint32_t num_levels() const { return num_levels_; }

  /// Node ids at a given level, left to right.
  const std::vector<NodeId>& level_nodes(std::uint32_t level) const;

  /// Compute (leaf) nodes, left to right; their order defines the client
  /// rank used by mappings (client 0 is the leftmost leaf).
  const std::vector<NodeId>& clients() const { return clients_; }
  std::size_t num_clients() const { return clients_.size(); }

  /// Rank of a compute node among clients (inverse of clients()[rank]).
  std::size_t client_rank(NodeId id) const;

  /// Node ids from a node up to and including the root.
  std::vector<NodeId> path_to_root(NodeId id) const;

  /// Must be called after construction completes: orders clients, indexes
  /// levels, and checks that all leaves are compute nodes at equal depth.
  void finalize();
  bool finalized() const { return finalized_; }

  /// Multi-line rendering of the tree for diagnostics.
  std::string to_string() const;

 private:
  std::vector<TreeNode> nodes_;
  std::vector<std::vector<NodeId>> levels_;
  std::vector<NodeId> clients_;
  std::vector<std::size_t> client_rank_;  // by node id; npos if not client
  std::uint32_t num_levels_ = 1;
  bool finalized_ = false;
};

/// Builds the layered topology of the paper's experiments: `storage`
/// storage nodes, `io` I/O nodes and `clients` compute nodes, with each
/// layer's nodes divided evenly among the layer above (Fig. 7 / Table 1).
/// A dummy root is added when storage > 1.  Node counts must divide
/// evenly (io % storage == 0 and clients % io == 0).
HierarchyTree make_layered_hierarchy(std::size_t clients, std::size_t io,
                                     std::size_t storage,
                                     std::uint64_t client_cache_bytes,
                                     std::uint64_t io_cache_bytes,
                                     std::uint64_t storage_cache_bytes);

}  // namespace mlsc::topology
