#include "core/pipeline.h"

#include <algorithm>
#include <numeric>
#include <optional>

#include "core/baselines.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "support/check.h"

namespace mlsc::core {

std::string PipelineOptions::name() const {
  std::string base = mapper_kind_name(mapper);
  if (schedule) base += "+sched";
  return base;
}

namespace {

/// The client cache the intra-processor tiling targets: the capacity the
/// tree gives its compute nodes (MachineConfig::build_tree puts
/// client_cache_bytes on each; the largest is taken).
std::uint64_t client_cache_bytes(const topology::HierarchyTree& tree) {
  std::uint64_t bytes = 0;
  for (const topology::NodeId id : tree.clients()) {
    bytes = std::max(bytes, tree.node(id).cache_capacity_bytes);
  }
  return bytes;
}

/// The chunk dependences of every nest in `nests` over `chunks`.
std::vector<ChunkDependence> nest_dependences(
    const poly::Program& program, std::span<const poly::NestId> nests,
    std::span<const IterationChunk> chunks) {
  obs::Span span("pipeline.dependences");
  std::vector<ChunkDependence> all;
  for (const poly::NestId nest_id : nests) {
    const auto deps = find_chunk_dependences(program, nest_id, chunks);
    all.insert(all.end(), deps.begin(), deps.end());
  }
  span.arg("edges", static_cast<std::uint64_t>(all.size()));
  return all;
}

}  // namespace

void synchronize_mapping(MappingResult& mapping, const poly::Program& program,
                         std::span<const poly::NestId> nests) {
  insert_sync_edges(mapping,
                    nest_dependences(program, nests, mapping.chunk_table),
                    &program);
}

MappingPipeline::MappingPipeline(const topology::HierarchyTree& tree,
                                 PipelineOptions options)
    : tree_(tree), options_(options) {
  MLSC_CHECK(tree_.finalized(), "hierarchy tree must be finalized");
}

MappingResult MappingPipeline::run(const poly::Program& program,
                                   const DataSpace& space,
                                   std::span<const poly::NestId> nests) const {
  MLSC_CHECK(!nests.empty(), "no nests to map");

  switch (options_.mapper) {
    case MapperKind::kOriginal:
      return map_original(program, nests, tree_.num_clients());
    case MapperKind::kIntraProcessor:
      return map_intra_processor(program, space, nests, tree_.num_clients(),
                                 client_cache_bytes(tree_));
    case MapperKind::kInterProcessor:
      break;
  }

  obs::Span pipeline_span("pipeline.run");
  std::optional<ThreadPool> pool_storage;
  ThreadPool* pool = nullptr;
  if (resolve_num_threads(options_.num_threads) > 1) {
    pool_storage.emplace(options_.num_threads);
    pool = &*pool_storage;
  }
  auto tagging =
      compute_iteration_chunks(program, space, nests, options_.tagging, pool);
  auto chunks = std::move(tagging.chunks);
  pipeline_span.arg("nests", static_cast<std::uint64_t>(nests.size()));
  pipeline_span.arg("iterations", tagging.total_iterations);

  // Dependence handling, strategy 1: pre-merge dependent chunks so the
  // clustering can never separate them.
  if (options_.dependences == DependenceStrategy::kMergeClusters) {
    const auto deps = nest_dependences(program, nests, chunks);
    if (!deps.empty()) chunks = merge_dependent_chunks(std::move(chunks), deps);
  }

  HierarchicalMapperOptions mapper_options;
  mapper_options.balance_threshold = options_.balance_threshold;
  mapper_options.tagging = options_.tagging;
  mapper_options.clustering = options_.clustering;
  mapper_options.num_threads = options_.num_threads;
  HierarchicalMapper mapper(tree_, mapper_options);
  auto mapping = mapper.map_chunks(std::move(chunks));

  if (options_.schedule) {
    schedule_mapping(mapping, tree_, options_.scheduler);
  }

  // Dependence handling, strategy 2.
  if (options_.dependences == DependenceStrategy::kSynchronize) {
    synchronize_mapping(mapping, program, nests);
  }
  return mapping;
}

MappingResult MappingPipeline::run_all(const poly::Program& program,
                                       const DataSpace& space) const {
  std::vector<poly::NestId> nests(program.nests.size());
  std::iota(nests.begin(), nests.end(), 0u);
  return run(program, space, nests);
}

}  // namespace mlsc::core
