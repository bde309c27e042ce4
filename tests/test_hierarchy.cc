#include "topology/hierarchy.h"

#include <gtest/gtest.h>

#include "support/check.h"

namespace mlsc::topology {
namespace {

/// The paper's Fig. 7 example: 4 clients, 2 I/O nodes, 1 storage node.
HierarchyTree fig7_tree() {
  return make_layered_hierarchy(4, 2, 1, 32, 32, 32);
}

TEST(Hierarchy, Fig7Structure) {
  const auto tree = fig7_tree();
  EXPECT_EQ(tree.num_clients(), 4u);
  EXPECT_EQ(tree.num_levels(), 3u);  // SN -> IO -> CN
  EXPECT_EQ(tree.node(tree.root()).kind, NodeKind::kStorage);
  EXPECT_EQ(tree.level_nodes(1).size(), 2u);  // IO0, IO1
  EXPECT_EQ(tree.level_nodes(2).size(), 4u);
}

TEST(Hierarchy, DummyRootForMultipleStorageNodes) {
  const auto tree = make_layered_hierarchy(8, 4, 2, 32, 32, 32);
  EXPECT_EQ(tree.node(tree.root()).kind, NodeKind::kDummyRoot);
  EXPECT_EQ(tree.node(tree.root()).cache_capacity_bytes, 0u);
  EXPECT_EQ(tree.num_levels(), 4u);
  EXPECT_EQ(tree.level_nodes(1).size(), 2u);  // storage nodes
}

TEST(Hierarchy, PaperDefaultTopology) {
  const auto tree = make_layered_hierarchy(64, 32, 16, 1, 1, 1);
  EXPECT_EQ(tree.num_clients(), 64u);
  EXPECT_EQ(tree.level_nodes(1).size(), 16u);
  EXPECT_EQ(tree.level_nodes(2).size(), 32u);
  EXPECT_EQ(tree.level_nodes(3).size(), 64u);
  // Each IO node serves 64/32 = 2 clients; each storage node 2 IO nodes.
  EXPECT_EQ(tree.node(tree.level_nodes(2)[0]).children.size(), 2u);
  EXPECT_EQ(tree.node(tree.level_nodes(1)[0]).children.size(), 2u);
}

TEST(Hierarchy, ClientRankMatchesLeafOrder) {
  const auto tree = fig7_tree();
  for (std::size_t rank = 0; rank < tree.num_clients(); ++rank) {
    EXPECT_EQ(tree.client_rank(tree.clients()[rank]), rank);
    EXPECT_EQ(tree.node(tree.clients()[rank]).name,
              "CN" + std::to_string(rank));
  }
}

TEST(Hierarchy, PathToRoot) {
  const auto tree = fig7_tree();
  const auto path = tree.path_to_root(tree.clients()[3]);
  ASSERT_EQ(path.size(), 3u);
  EXPECT_EQ(path.back(), tree.root());
}

TEST(Hierarchy, RejectsUnevenLayers) {
  EXPECT_THROW(make_layered_hierarchy(10, 4, 2, 1, 1, 1), mlsc::Error);
  EXPECT_THROW(make_layered_hierarchy(8, 3, 2, 1, 1, 1), mlsc::Error);
  EXPECT_THROW(make_layered_hierarchy(0, 1, 1, 1, 1, 1), mlsc::Error);
}

TEST(Hierarchy, RejectsChildrenUnderCompute) {
  HierarchyTree tree(NodeKind::kStorage, 0, "SN0");
  const auto cn = tree.add_child(tree.root(), NodeKind::kCompute, 8, "CN0");
  EXPECT_THROW(tree.add_child(cn, NodeKind::kCompute, 8, "X"), mlsc::Error);
}

TEST(Hierarchy, FinalizeRejectsInteriorComputeOrNonComputeLeaf) {
  HierarchyTree tree(NodeKind::kStorage, 0, "SN0");
  tree.add_child(tree.root(), NodeKind::kIo, 0, "IO0");  // leaf IO node
  EXPECT_THROW(tree.finalize(), mlsc::Error);
}

TEST(Hierarchy, ToStringShowsStructure) {
  const auto tree = fig7_tree();
  const auto s = tree.to_string();
  EXPECT_NE(s.find("SN0"), std::string::npos);
  EXPECT_NE(s.find("IO1"), std::string::npos);
  EXPECT_NE(s.find("CN3"), std::string::npos);
}

}  // namespace
}  // namespace mlsc::topology
