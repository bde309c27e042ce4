// The cache-hierarchy-conscious loop iteration distribution algorithm
// (paper Fig. 5): hierarchical clustering of iteration chunks over the
// storage cache hierarchy tree, with per-level load balancing.
#pragma once

#include <span>
#include <vector>

#include "core/clustering.h"
#include "core/data_space.h"
#include "core/load_balance.h"
#include "core/mapping.h"
#include "core/tagging.h"
#include "support/thread_pool.h"
#include "topology/hierarchy.h"

namespace mlsc::core {

struct HierarchicalMapperOptions {
  /// BThres, the maximum tolerable relative imbalance (default 10%, the
  /// value used in the paper's experiments, §5.2).
  double balance_threshold = 0.10;
  TaggingOptions tagging;

  /// Clustering kernel selection (greedy oracle vs affinity forest); see
  /// ClusterOptions.
  ClusterOptions clustering;

  /// Threads for tagging, clustering and balancing: 1 = serial (the
  /// default), 0 = hardware concurrency, N = exactly N.  Every parallel
  /// stage reduces in a fixed order, so the produced mapping is
  /// bit-identical for every thread count.
  std::size_t num_threads = 1;
};

class HierarchicalMapper {
 public:
  HierarchicalMapper(const topology::HierarchyTree& tree,
                     HierarchicalMapperOptions options = {});

  /// Runs initialization (tagging), hierarchical clustering and load
  /// balancing; returns one iteration-chunk list per client, in tree
  /// leaf order.  `nests` may name several nests (multi-nest mode).
  MappingResult map(const poly::Program& program, const DataSpace& space,
                    std::span<const poly::NestId> nests) const;

  /// Same, but starting from an existing chunk table (used by the
  /// dependence extension, which pre-merges dependent chunks).
  MappingResult map_chunks(std::vector<IterationChunk> chunks) const;

  const topology::HierarchyTree& tree() const { return tree_; }
  const HierarchicalMapperOptions& options() const { return options_; }

 private:
  MappingResult map_chunks_with_pool(std::vector<IterationChunk> chunks,
                                     ThreadPool* pool) const;

  const topology::HierarchyTree& tree_;
  HierarchicalMapperOptions options_;
};

}  // namespace mlsc::core
