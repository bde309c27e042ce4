// Differential oracle for the multi-level cache path: MultiLevelCache
// against a deliberately naive hierarchy built straight from the level
// definitions.  Each naive cache is a recency vector searched linearly,
// and every walk follows the tree's parent links afresh, so neither the
// per-node cached paths nor the flat policy cores are shared with the
// code under test.  Random small trees run random interleavings of
// accesses, prefetch installs, residency probes, fail/recover events and
// degraded capacities under every placement x write-back x cooperative x
// {LRU, FIFO} combination; every result and every node's statistics
// must agree after every step.
#include <gtest/gtest.h>

#include <algorithm>
#include <optional>
#include <string>
#include <vector>

#include "cache/multilevel.h"
#include "cache/storage_cache.h"
#include "support/rng.h"

namespace mlsc::cache {
namespace {

using topology::HierarchyTree;
using topology::kInvalidNode;
using topology::NodeId;
using topology::NodeKind;

constexpr std::uint64_t kChunkBytes = 64;

/// One storage cache as a recency list: front = most recently inserted
/// (or, under LRU, used).
struct NaiveCache {
  std::size_t base_capacity = 0;
  std::size_t capacity = 0;
  std::vector<ChunkId> order;
  std::vector<ChunkId> dirty;
  CacheStats stats;
  bool failed = false;

  bool resident(ChunkId chunk) const {
    return std::find(order.begin(), order.end(), chunk) != order.end();
  }
  bool is_dirty(ChunkId chunk) const {
    return std::find(dirty.begin(), dirty.end(), chunk) != dirty.end();
  }
  void move_to_front(ChunkId chunk) {
    order.erase(std::find(order.begin(), order.end(), chunk));
    order.insert(order.begin(), chunk);
  }
  void restart(std::size_t new_capacity) {
    capacity = new_capacity;
    order.clear();
    dirty.clear();
  }
};

class NaiveHierarchy {
 public:
  NaiveHierarchy(const HierarchyTree& tree, bool lru, PlacementMode placement,
                 bool write_back, bool cooperative)
      : tree_(tree),
        lru_(lru),
        placement_(placement),
        write_back_(write_back),
        cooperative_(cooperative),
        caches_(tree.num_nodes()) {
    for (NodeId id = 0; id < tree.num_nodes(); ++id) {
      const std::uint64_t bytes = tree.node(id).cache_capacity_bytes;
      if (bytes == 0) continue;
      NaiveCache cache;
      cache.base_capacity = cache.capacity =
          static_cast<std::size_t>(bytes / kChunkBytes);
      caches_[id] = cache;
    }
  }

  bool has_cache(NodeId node) const { return caches_[node].has_value(); }
  const NaiveCache& cache(NodeId node) const { return *caches_[node]; }

  AccessResult access(NodeId client, ChunkId chunk, bool is_write) {
    AccessResult result;
    std::vector<NodeId> missed;
    for (NodeId node = client; node != kInvalidNode;
         node = tree_.node(node).parent) {
      if (!has_cache(node)) continue;
      if (caches_[node]->failed) {
        ++result.failed_probes;
        if (probe_siblings(node, chunk, result)) break;
        continue;
      }
      ++result.caches_probed;
      if (lookup(node, chunk)) {
        result.hit_node = node;
        break;
      }
      missed.push_back(node);
      if (cooperative_ && node == client &&
          probe_siblings(node, chunk, result)) {
        break;
      }
    }

    if (placement_ == PlacementMode::kAccessBased) {
      for (NodeId node : missed) {
        fill(node, chunk, false, result.writebacks_to_disk);
      }
    } else {
      if (!missed.empty()) {
        fill(missed.front(), chunk, false, result.writebacks_to_disk);
      }
      if (placement_ == PlacementMode::kExclusive &&
          result.hit_node != kInvalidNode && result.hit_node != client &&
          !result.peer_hit && !missed.empty()) {
        erase(result.hit_node, chunk);
      }
    }

    if (is_write && write_back_ && has_cache(client) &&
        !caches_[client]->failed) {
      mark_dirty(client, chunk);
    }
    return result;
  }

  std::uint32_t install(NodeId client, ChunkId chunk) {
    std::uint32_t writebacks = 0;
    for (NodeId node = client; node != kInvalidNode;
         node = tree_.node(node).parent) {
      if (has_cache(node) && !caches_[node]->failed &&
          !caches_[node]->resident(chunk)) {
        fill(node, chunk, false, writebacks);
      }
    }
    return writebacks;
  }

  bool resident_on_path(NodeId client, ChunkId chunk) const {
    for (NodeId node = client; node != kInvalidNode;
         node = tree_.node(node).parent) {
      if (has_cache(node) && !caches_[node]->failed &&
          caches_[node]->resident(chunk)) {
        return true;
      }
    }
    return false;
  }

  void set_node_failed(NodeId node, bool failed) {
    if (!has_cache(node)) return;
    NaiveCache& cache = *caches_[node];
    if (failed && !cache.failed) cache.restart(cache.capacity);
    if (!failed && cache.failed) cache.restart(cache.base_capacity);
    cache.failed = failed;
  }

  void set_node_capacity_divisor(NodeId node, double divisor) {
    if (!has_cache(node)) return;
    NaiveCache& cache = *caches_[node];
    const auto chunks = static_cast<std::size_t>(
        static_cast<double>(cache.base_capacity) / divisor);
    cache.restart(std::max<std::size_t>(chunks, 1));
  }

 private:
  /// Peer probe of the healthy cached siblings of `node`.
  bool probe_siblings(NodeId node, ChunkId chunk, AccessResult& result) {
    const NodeId parent = tree_.node(node).parent;
    if (parent == kInvalidNode) return false;
    for (NodeId sibling : tree_.node(parent).children) {
      if (sibling != node && has_cache(sibling) && !caches_[sibling]->failed &&
          caches_[sibling]->resident(chunk)) {
        result.hit_node = sibling;
        result.peer_hit = true;
        return true;
      }
    }
    return false;
  }

  bool lookup(NodeId node, ChunkId chunk) {
    NaiveCache& cache = *caches_[node];
    ++cache.stats.accesses;
    if (!cache.resident(chunk)) {
      ++cache.stats.misses;
      return false;
    }
    ++cache.stats.hits;
    cache.stats.bytes_served += kChunkBytes;
    if (lru_) cache.move_to_front(chunk);
    return true;
  }

  void mark_dirty(NodeId node, ChunkId chunk) {
    NaiveCache& cache = *caches_[node];
    if (cache.resident(chunk) && !cache.is_dirty(chunk)) {
      cache.dirty.push_back(chunk);
    }
  }

  void erase(NodeId node, ChunkId chunk) {
    NaiveCache& cache = *caches_[node];
    std::erase(cache.dirty, chunk);
    std::erase(cache.order, chunk);
  }

  /// Inserts into one cache; an evicted chunk that must survive moves to
  /// the nearest healthy cached ancestor, or to disk when dirty.
  void fill(NodeId node, ChunkId chunk, bool dirty,
            std::uint32_t& writebacks) {
    NaiveCache& cache = *caches_[node];
    ++cache.stats.insertions;
    cache.stats.bytes_filled += kChunkBytes;
    std::optional<ChunkId> victim;
    bool victim_dirty = false;
    if (cache.resident(chunk)) {
      if (lru_) cache.move_to_front(chunk);
    } else {
      if (cache.order.size() == cache.capacity) {
        victim = cache.order.back();
        cache.order.pop_back();
        victim_dirty = cache.is_dirty(*victim);
        std::erase(cache.dirty, *victim);
        ++cache.stats.evictions;
        if (victim_dirty) ++cache.stats.dirty_evictions;
      }
      cache.order.insert(cache.order.begin(), chunk);
    }
    if (dirty && write_back_) mark_dirty(node, chunk);
    if (!victim.has_value()) return;
    if (placement_ == PlacementMode::kAccessBased &&
        !(write_back_ && victim_dirty)) {
      return;
    }
    for (NodeId up = tree_.node(node).parent; up != kInvalidNode;
         up = tree_.node(up).parent) {
      if (!has_cache(up) || caches_[up]->failed) continue;
      if (placement_ == PlacementMode::kAccessBased &&
          caches_[up]->resident(*victim)) {
        if (victim_dirty) mark_dirty(up, *victim);
      } else {
        fill(up, *victim, victim_dirty, writebacks);
      }
      return;
    }
    if (victim_dirty) ++writebacks;
  }

  const HierarchyTree& tree_;
  bool lru_;
  PlacementMode placement_;
  bool write_back_;
  bool cooperative_;
  std::vector<std::optional<NaiveCache>> caches_;
};

/// A random tree: fan-out 1-3 per level, caches of 1-9 chunks (some nodes
/// uncached, some capacities not a whole number of chunks), and one of
/// four level layouts, with or without an uncached dummy root.
HierarchyTree random_tree(Rng& rng) {
  auto cache_bytes = [&rng]() -> std::uint64_t {
    if (rng.next_below(5) == 0) return 0;
    return (1 + rng.next_below(9)) * kChunkBytes + rng.next_below(kChunkBytes);
  };
  static const std::vector<std::vector<NodeKind>> kLayouts = {
      {NodeKind::kCompute},
      {NodeKind::kIo, NodeKind::kCompute},
      {NodeKind::kStorage, NodeKind::kCompute},
      {NodeKind::kStorage, NodeKind::kIo, NodeKind::kCompute},
  };
  const auto& below = kLayouts[rng.next_below(kLayouts.size())];
  const bool dummy_root = below.front() == NodeKind::kStorage;
  HierarchyTree tree(dummy_root ? NodeKind::kDummyRoot : NodeKind::kStorage,
                     dummy_root ? 0 : cache_bytes(), "root");
  std::vector<NodeId> frontier = {tree.root()};
  for (NodeKind kind : below) {
    std::vector<NodeId> next;
    for (NodeId parent : frontier) {
      const auto fan_out = 1 + rng.next_below(3);
      for (std::uint64_t i = 0; i < fan_out; ++i) {
        next.push_back(tree.add_child(parent, kind, cache_bytes(),
                                      "n" + std::to_string(tree.num_nodes())));
      }
    }
    frontier = std::move(next);
  }
  tree.finalize();
  return tree;
}

struct OracleConfig {
  PolicyKind policy;
  PlacementMode placement;
  bool write_back;
  bool cooperative;
};

std::string config_name(const OracleConfig& config) {
  std::string name = policy_kind_name(config.policy);
  switch (config.placement) {
    case PlacementMode::kAccessBased:
      name += "_access";
      break;
    case PlacementMode::kEvictionBased:
      name += "_eviction";
      break;
    case PlacementMode::kExclusive:
      name += "_exclusive";
      break;
  }
  if (config.write_back) name += "_writeback";
  if (config.cooperative) name += "_coop";
  return name;
}

std::vector<OracleConfig> all_configs() {
  std::vector<OracleConfig> configs;
  for (PolicyKind policy : {PolicyKind::kLru, PolicyKind::kFifo}) {
    for (PlacementMode placement :
         {PlacementMode::kAccessBased, PlacementMode::kEvictionBased,
          PlacementMode::kExclusive}) {
      for (bool write_back : {false, true}) {
        for (bool cooperative : {false, true}) {
          configs.push_back({policy, placement, write_back, cooperative});
        }
      }
    }
  }
  return configs;
}

void expect_same_stats(const CacheStats& got, const CacheStats& want) {
  EXPECT_EQ(got.accesses, want.accesses);
  EXPECT_EQ(got.hits, want.hits);
  EXPECT_EQ(got.misses, want.misses);
  EXPECT_EQ(got.insertions, want.insertions);
  EXPECT_EQ(got.evictions, want.evictions);
  EXPECT_EQ(got.dirty_evictions, want.dirty_evictions);
  EXPECT_EQ(got.bytes_served, want.bytes_served);
  EXPECT_EQ(got.bytes_filled, want.bytes_filled);
}

class MultiLevelOracle : public ::testing::TestWithParam<OracleConfig> {};

TEST_P(MultiLevelOracle, MatchesNaiveHierarchy) {
  const OracleConfig config = GetParam();
  constexpr int kTreesPerConfig = 20;  // x 24 configs = 480 trees
  constexpr int kStepsPerTree = 600;
  static constexpr double kDivisors[] = {1.0, 1.5, 2.0, 3.0, 10.0};
  Rng rng(0xC0FFEE + 16 * static_cast<std::uint64_t>(config.policy) +
          4 * static_cast<std::uint64_t>(config.placement) +
          2 * std::uint64_t{config.write_back} +
          std::uint64_t{config.cooperative});
  for (int t = 0; t < kTreesPerConfig; ++t) {
    const HierarchyTree tree = random_tree(rng);
    SCOPED_TRACE("tree " + std::to_string(t) + ":\n" + tree.to_string());
    MultiLevelCache real(tree, kChunkBytes, config.policy, config.placement);
    real.set_write_back(config.write_back);
    real.set_cooperative(config.cooperative);
    NaiveHierarchy naive(tree, config.policy == PolicyKind::kLru,
                         config.placement, config.write_back,
                         config.cooperative);
    const auto num_chunks = 4 + rng.next_below(61);  // <= 64 chunk ids
    for (int step = 0; step < kStepsPerTree; ++step) {
      SCOPED_TRACE("step " + std::to_string(step));
      const NodeId client =
          tree.clients()[rng.next_below(tree.num_clients())];
      const auto chunk = static_cast<ChunkId>(rng.next_below(num_chunks));
      const auto node = static_cast<NodeId>(rng.next_below(tree.num_nodes()));
      const auto action = rng.next_below(100);
      if (action < 62) {
        const bool is_write = rng.next_below(3) == 0;
        const AccessResult got = real.access(client, chunk, is_write);
        const AccessResult want = naive.access(client, chunk, is_write);
        EXPECT_EQ(got.hit_node, want.hit_node);
        EXPECT_EQ(got.peer_hit, want.peer_hit);
        EXPECT_EQ(got.caches_probed, want.caches_probed);
        EXPECT_EQ(got.failed_probes, want.failed_probes);
        EXPECT_EQ(got.writebacks_to_disk, want.writebacks_to_disk);
      } else if (action < 75) {
        EXPECT_EQ(real.install(client, chunk), naive.install(client, chunk));
      } else if (action < 88) {
        EXPECT_EQ(real.resident_on_path(client, chunk),
                  naive.resident_on_path(client, chunk));
      } else if (action < 95) {
        // Recover more often than fail so that most caches stay up.
        const bool failed = rng.next_below(5) < 2;
        real.set_node_failed(node, failed);
        naive.set_node_failed(node, failed);
      } else {
        const double divisor = kDivisors[rng.next_below(5)];
        real.set_node_capacity_divisor(node, divisor);
        naive.set_node_capacity_divisor(node, divisor);
      }
      for (NodeId id = 0; id < tree.num_nodes(); ++id) {
        ASSERT_EQ(real.has_cache(id), naive.has_cache(id));
        if (!real.has_cache(id)) continue;
        EXPECT_EQ(real.node_failed(id), naive.cache(id).failed);
        EXPECT_EQ(real.cache(id).size(), naive.cache(id).order.size());
        EXPECT_EQ(real.cache(id).capacity(), naive.cache(id).capacity);
        expect_same_stats(real.cache(id).stats(), naive.cache(id).stats);
      }
      if (HasFailure()) return;  // the first divergence is the useful one
    }
  }
}

INSTANTIATE_TEST_SUITE_P(AllCombinations, MultiLevelOracle,
                         ::testing::ValuesIn(all_configs()),
                         [](const auto& info) {
                           return config_name(info.param);
                         });

}  // namespace
}  // namespace mlsc::cache
