// MappingPipeline: the library's top-level entry point.
//
// Mirrors what the paper's Phoenix-based implementation does at compile
// time: take a (parallelized) program, a storage cache hierarchy
// description and a chunked data space, and produce the
// iteration-to-processor mapping — original, intra-processor, or the
// paper's inter-processor scheme, optionally with the Fig. 15 scheduling
// enhancement and §5.4 dependence handling.
#pragma once

#include <optional>
#include <span>
#include <string>

#include "core/data_space.h"
#include "core/dependences.h"
#include "core/mapper.h"
#include "core/mapping.h"
#include "core/scheduler.h"
#include "topology/hierarchy.h"

namespace mlsc::core {

/// How to map: which of the paper's three versions (§5.1), plus the
/// Fig. 15 scheduling switch for the enhanced inter-processor version,
/// and the knobs of each stage.  The intra-processor version tiles for
/// the client cache the tree gives its compute nodes.
struct PipelineOptions {
  MapperKind mapper = MapperKind::kInterProcessor;

  /// BThres (§4.3); the paper's experiments use 10%.
  double balance_threshold = 0.10;

  /// Applies the Fig. 15 local scheduling pass (inter-processor only).
  bool schedule = false;
  SchedulerOptions scheduler;

  /// §5.4 dependence handling; kSynchronize is the paper's choice.
  DependenceStrategy dependences = DependenceStrategy::kSynchronize;

  TaggingOptions tagging;

  /// Clustering kernel selection (greedy oracle vs affinity forest) and
  /// the forest's candidate filters; see ClusterOptions.
  ClusterOptions clustering;

  /// Threads for the mapping stages (tagging, clustering, balancing):
  /// 1 = serial (default), 0 = hardware concurrency, N = exactly N.  The
  /// mapping produced is bit-identical for every value — parallel stages
  /// reduce in a fixed order — so this is purely a wall-clock knob.
  std::size_t num_threads = 1;

  static PipelineOptions original() {
    PipelineOptions o;
    o.mapper = MapperKind::kOriginal;
    return o;
  }
  static PipelineOptions intra() {
    PipelineOptions o;
    o.mapper = MapperKind::kIntraProcessor;
    return o;
  }
  static PipelineOptions inter() { return {}; }
  static PipelineOptions inter_scheduled(double alpha = 0.5,
                                         double beta = 0.5) {
    PipelineOptions o;
    o.schedule = true;
    o.scheduler = {alpha, beta};
    return o;
  }

  /// "original", "intra-processor", "inter-processor", with "+sched"
  /// appended when the scheduling pass is on.
  std::string name() const;
};

class MappingPipeline {
 public:
  MappingPipeline(const topology::HierarchyTree& tree,
                  PipelineOptions options = {});

  /// Maps the given nests of the program onto the tree's clients.
  /// Multi-nest handling (§5.4) is automatic when several nests are
  /// passed: their iteration chunks are clustered together.
  MappingResult run(const poly::Program& program, const DataSpace& space,
                    std::span<const poly::NestId> nests) const;

  /// Convenience: maps every nest of the program.
  MappingResult run_all(const poly::Program& program,
                        const DataSpace& space) const;

  const PipelineOptions& options() const { return options_; }

 private:
  const topology::HierarchyTree& tree_;
  PipelineOptions options_;
};

}  // namespace mlsc::core
