#include "topology/hierarchy.h"

#include <algorithm>
#include <sstream>

#include "support/check.h"

namespace mlsc::topology {

const char* node_kind_name(NodeKind kind) {
  switch (kind) {
    case NodeKind::kDummyRoot:
      return "dummy-root";
    case NodeKind::kStorage:
      return "storage";
    case NodeKind::kIo:
      return "io";
    case NodeKind::kCompute:
      return "compute";
  }
  return "?";
}

HierarchyTree::HierarchyTree(NodeKind root_kind,
                             std::uint64_t root_cache_bytes,
                             std::string root_name) {
  TreeNode root;
  root.kind = root_kind;
  root.level = 0;
  root.cache_capacity_bytes = root_cache_bytes;
  root.name = std::move(root_name);
  nodes_.push_back(std::move(root));
}

NodeId HierarchyTree::add_child(NodeId parent, NodeKind kind,
                                std::uint64_t cache_bytes, std::string name) {
  MLSC_CHECK(!finalized_, "cannot add nodes after finalize()");
  MLSC_CHECK(parent < nodes_.size(), "unknown parent node " << parent);
  MLSC_CHECK(nodes_[parent].kind != NodeKind::kCompute,
             "compute nodes are leaves; cannot add a child to one");
  const auto id = static_cast<NodeId>(nodes_.size());
  TreeNode node;
  node.kind = kind;
  node.parent = parent;
  node.level = nodes_[parent].level + 1;
  node.cache_capacity_bytes = cache_bytes;
  node.name = std::move(name);
  nodes_.push_back(std::move(node));
  nodes_[parent].children.push_back(id);
  num_levels_ = std::max(num_levels_, nodes_[id].level + 1);
  return id;
}

const TreeNode& HierarchyTree::node(NodeId id) const {
  MLSC_CHECK(id < nodes_.size(), "unknown node " << id);
  return nodes_[id];
}

const std::vector<NodeId>& HierarchyTree::level_nodes(
    std::uint32_t level) const {
  MLSC_CHECK(finalized_, "finalize() the tree before level queries");
  MLSC_CHECK(level < levels_.size(), "level " << level << " out of range");
  return levels_[level];
}

std::size_t HierarchyTree::client_rank(NodeId id) const {
  MLSC_CHECK(finalized_, "finalize() the tree before rank queries");
  MLSC_CHECK(id < client_rank_.size() &&
                 client_rank_[id] != static_cast<std::size_t>(-1),
             "node " << id << " is not a compute node");
  return client_rank_[id];
}

std::vector<NodeId> HierarchyTree::path_to_root(NodeId id) const {
  std::vector<NodeId> path;
  NodeId cur = id;
  while (cur != kInvalidNode) {
    MLSC_CHECK(cur < nodes_.size(), "unknown node " << cur);
    path.push_back(cur);
    cur = nodes_[cur].parent;
  }
  return path;
}

void HierarchyTree::finalize() {
  MLSC_CHECK(!finalized_, "tree already finalized");
  levels_.assign(num_levels_, {});
  clients_.clear();
  client_rank_.assign(nodes_.size(), static_cast<std::size_t>(-1));

  // Depth-first, children in insertion order, so that leaf order matches
  // the left-to-right drawing of the tree (Fig. 1).
  std::vector<NodeId> stack{root()};
  std::vector<NodeId> dfs_order;
  while (!stack.empty()) {
    const NodeId cur = stack.back();
    stack.pop_back();
    dfs_order.push_back(cur);
    const auto& children = nodes_[cur].children;
    for (auto it = children.rbegin(); it != children.rend(); ++it) {
      stack.push_back(*it);
    }
  }
  std::uint32_t leaf_level = 0;
  for (NodeId id : dfs_order) {
    levels_[nodes_[id].level].push_back(id);
    if (nodes_[id].children.empty()) {
      MLSC_CHECK(nodes_[id].kind == NodeKind::kCompute,
                 "leaf node " << nodes_[id].name << " is not a compute node");
      if (clients_.empty()) {
        leaf_level = nodes_[id].level;
      } else {
        MLSC_CHECK(nodes_[id].level == leaf_level,
                   "all compute nodes must sit at the same depth");
      }
      client_rank_[id] = clients_.size();
      clients_.push_back(id);
    } else {
      MLSC_CHECK(nodes_[id].kind != NodeKind::kCompute,
                 "interior node " << nodes_[id].name
                                  << " must not be a compute node");
    }
  }
  MLSC_CHECK(!clients_.empty(), "hierarchy has no compute nodes");
  finalized_ = true;
}

std::string HierarchyTree::to_string() const {
  std::ostringstream out;
  std::vector<std::pair<NodeId, std::string>> stack{{root(), ""}};
  while (!stack.empty()) {
    auto [id, indent] = stack.back();
    stack.pop_back();
    const TreeNode& n = nodes_[id];
    out << indent << n.name << " [" << node_kind_name(n.kind);
    if (n.cache_capacity_bytes > 0) {
      out << ", cache " << format_bytes(n.cache_capacity_bytes);
    }
    out << "]\n";
    for (auto it = n.children.rbegin(); it != n.children.rend(); ++it) {
      stack.emplace_back(*it, indent + "  ");
    }
  }
  return out.str();
}

HierarchyTree make_layered_hierarchy(std::size_t clients, std::size_t io,
                                     std::size_t storage,
                                     std::uint64_t client_cache_bytes,
                                     std::uint64_t io_cache_bytes,
                                     std::uint64_t storage_cache_bytes) {
  MLSC_CHECK(clients > 0 && io > 0 && storage > 0,
             "layer sizes must be positive");
  MLSC_CHECK(io % storage == 0, "io nodes (" << io
                                             << ") must divide evenly among "
                                             << storage << " storage nodes");
  MLSC_CHECK(clients % io == 0, "clients (" << clients
                                            << ") must divide evenly among "
                                            << io << " io nodes");

  const bool needs_dummy_root = storage > 1;
  HierarchyTree tree =
      needs_dummy_root
          ? HierarchyTree(NodeKind::kDummyRoot, 0, "unified-root")
          : HierarchyTree(NodeKind::kStorage, storage_cache_bytes, "SN0");

  std::vector<NodeId> storage_nodes;
  if (needs_dummy_root) {
    for (std::size_t s = 0; s < storage; ++s) {
      storage_nodes.push_back(tree.add_child(tree.root(), NodeKind::kStorage,
                                             storage_cache_bytes,
                                             "SN" + std::to_string(s)));
    }
  } else {
    storage_nodes.push_back(tree.root());
  }

  std::vector<NodeId> io_nodes;
  const std::size_t io_per_storage = io / storage;
  for (std::size_t i = 0; i < io; ++i) {
    io_nodes.push_back(tree.add_child(storage_nodes[i / io_per_storage],
                                      NodeKind::kIo, io_cache_bytes,
                                      "IO" + std::to_string(i)));
  }

  const std::size_t clients_per_io = clients / io;
  for (std::size_t c = 0; c < clients; ++c) {
    tree.add_child(io_nodes[c / clients_per_io], NodeKind::kCompute,
                   client_cache_bytes, "CN" + std::to_string(c));
  }

  tree.finalize();
  return tree;
}

}  // namespace mlsc::topology
