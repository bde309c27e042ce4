// Tests for the engine/cache extensions: write-back, cooperative
// caching, sequential readahead, and the irregular (indirect) workload.
#include <gtest/gtest.h>

#include "core/pipeline.h"
#include "sim/experiment.h"
#include "support/check.h"
#include "workloads/irregular.h"

namespace mlsc::sim {
namespace {

poly::Program write_stream_program(std::int64_t n = 64) {
  poly::Program p;
  const auto a = p.add_array({"A", {n}, 64 * kKiB});
  poly::LoopNest nest;
  nest.name = "writer";
  nest.space = poly::IterationSpace({{0, n - 1}});
  nest.refs = {{a, poly::AccessMap::identity(1, {0}), /*is_write=*/true}};
  nest.compute_ns_per_iteration = 100;
  p.add_nest(std::move(nest));
  return p;
}

MachineConfig tiny_machine() {
  MachineConfig config;
  config.clients = 4;
  config.io_nodes = 2;
  config.storage_nodes = 1;
  config.client_cache_bytes = 4 * 64 * kKiB;
  config.io_cache_bytes = 4 * 64 * kKiB;
  config.storage_cache_bytes = 4 * 64 * kKiB;
  return config;
}

EngineResult run_program(
    const poly::Program& p, const MachineConfig& config,
    core::MapperKind mapper = core::MapperKind::kInterProcessor) {
  auto tree = config.build_tree();
  const core::DataSpace space(p, config.chunk_size_bytes);
  core::PipelineOptions options;
  options.mapper = mapper;
  core::MappingPipeline pipeline(tree, options);
  const auto m = pipeline.run_all(p, space);
  const auto trace = generate_trace(p, space, m);
  return run_engine(trace, m, config, tree);
}

TEST(WriteBack, DirtyEvictionsReachDisk) {
  const auto p = write_stream_program();
  auto config = tiny_machine();
  config.write_back = true;
  const auto r = run_program(p, config);
  // 64 chunks written streaming through 4+4+4-chunk caches: most dirty
  // chunks must eventually be flushed.
  EXPECT_GT(r.disk_writebacks, 32u);
  EXPECT_LE(r.disk_writebacks, 64u);
}

TEST(WriteBack, OffByDefault) {
  const auto p = write_stream_program();
  const auto r = run_program(p, tiny_machine());
  EXPECT_EQ(r.disk_writebacks, 0u);
}

TEST(WriteBack, CleanStreamsFlushNothing) {
  poly::Program p;
  const auto a = p.add_array({"A", {64}, 64 * kKiB});
  poly::LoopNest nest;
  nest.space = poly::IterationSpace({{0, 63}});
  nest.refs = {{a, poly::AccessMap::identity(1, {0}), false}};  // reads
  p.add_nest(std::move(nest));
  auto config = tiny_machine();
  config.write_back = true;
  EXPECT_EQ(run_program(p, config).disk_writebacks, 0u);
}

TEST(Cooperative, SiblingCacheServesPeerMisses) {
  // Two clients under one I/O node read the same chunks with the
  // original block mapping shifted: turn off the shared caches so the
  // only way to hit is the sibling's L1.
  poly::Program p;
  const auto a = p.add_array({"A", {2, 8}, 64 * kKiB});
  poly::LoopNest nest;
  // (pass, element): both passes read all 8 elements.
  nest.space = poly::IterationSpace::from_extents({2, 8});
  nest.refs = {{a, poly::AccessMap::from_matrix({{0, 0}, {0, 1}}, {0, 0}),
                false}};
  nest.compute_ns_per_iteration = 100;
  p.add_nest(std::move(nest));

  MachineConfig config = tiny_machine();
  config.clients = 2;
  config.io_nodes = 1;
  config.storage_nodes = 1;
  config.client_cache_bytes = 16 * 64 * kKiB;
  config.io_cache_bytes = 64 * kKiB;       // effectively useless (1 chunk)
  config.storage_cache_bytes = 64 * kKiB;  // likewise
  config.cooperative_caching = true;
  // The original (block) mapping leaves the two passes on different
  // clients touching the same chunks; the inter mapping would de-share
  // them (that is its whole point), so peer hits need the baseline.
  const auto r = run_program(p, config, core::MapperKind::kOriginal);
  EXPECT_GT(r.peer_hits, 0u);
}

TEST(Readahead, CutsDiskRequestsForSequentialStreams) {
  poly::Program p;
  const auto a = p.add_array({"A", {256}, 64 * kKiB});
  poly::LoopNest nest;
  nest.space = poly::IterationSpace({{0, 255}});
  nest.refs = {{a, poly::AccessMap::identity(1, {0}), false}};
  nest.compute_ns_per_iteration = 100;
  p.add_nest(std::move(nest));

  auto base = tiny_machine();
  const auto without = run_program(p, base);
  base.readahead_chunks = 4;
  const auto with = run_program(p, base);
  EXPECT_GT(with.prefetches, 0u);
  EXPECT_LT(with.disk_requests, without.disk_requests);
  // Everything still arrives: same access count.
  EXPECT_EQ(with.accesses, without.accesses);
}

TEST(Irregular, WorkloadValidatesAndMaps) {
  const auto w = workloads::make_irregular(1.0 / 16.0);
  EXPECT_EQ(w.program.index_tables.size(), 2u);
  auto config = tiny_machine();
  config.clients = 8;
  config.io_nodes = 4;
  config.storage_nodes = 2;
  config.client_cache_bytes = 2 * kMiB;
  config.io_cache_bytes = 2 * kMiB;
  config.storage_cache_bytes = 2 * kMiB;
  const auto tree = config.build_tree();
  const core::DataSpace space(w.program, config.chunk_size_bytes);
  core::MappingPipeline pipeline(tree);
  const auto m = pipeline.run_all(w.program, space);
  m.validate_partition(w.program);
}

TEST(Irregular, InterBeatsOriginalOnSharedNodes) {
  // Edge endpoints shared between edges are the sharing structure the
  // tag-based mapping can exploit and a static compiler cannot see.
  // Full data scale: at toy scale everything fits the caches and the
  // mapping has nothing to win.
  const auto w = workloads::make_irregular();
  const auto config = MachineConfig::paper_default();
  const auto orig =
      run_experiment(w, core::PipelineOptions::original(), config);
  const auto inter = run_experiment(w, core::PipelineOptions::inter(), config);
  EXPECT_LT(inter.engine.disk_requests, orig.engine.disk_requests);
  EXPECT_LT(inter.io_latency, orig.io_latency);
}

TEST(Irregular, ShuffleZeroIsGridOrder) {
  const auto ordered = workloads::make_irregular(1.0 / 16.0, 0.0);
  const auto& table = ordered.program.index_tables[0];
  // Grid order: source node indices are non-decreasing.
  for (std::size_t i = 1; i < table.values.size(); ++i) {
    EXPECT_LE(table.values[i - 1], table.values[i]);
  }
}

}  // namespace
}  // namespace mlsc::sim
