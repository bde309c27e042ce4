#include "sim/engine.h"

#include <gtest/gtest.h>

#include "core/pipeline.h"
#include "sim/experiment.h"
#include "support/check.h"
#include "workloads/registry.h"

namespace mlsc::sim {
namespace {

poly::Program streaming_program(std::int64_t n = 256) {
  poly::Program p;
  const auto a = p.add_array({"A", {n}, 64 * kKiB});
  poly::LoopNest nest;
  nest.name = "stream";
  nest.space = poly::IterationSpace({{0, n - 1}});
  nest.refs = {{a, poly::AccessMap::identity(1, {0}), false}};
  nest.compute_ns_per_iteration = 1000;
  p.add_nest(std::move(nest));
  return p;
}

MachineConfig tiny_machine() {
  MachineConfig config;
  config.clients = 4;
  config.io_nodes = 2;
  config.storage_nodes = 1;
  config.client_cache_bytes = 8 * 64 * kKiB;
  config.io_cache_bytes = 8 * 64 * kKiB;
  config.storage_cache_bytes = 8 * 64 * kKiB;
  return config;
}

struct Run {
  EngineResult engine;
  topology::HierarchyTree tree;
};

Run run_tiny(const poly::Program& p, const MachineConfig& config,
             core::MapperKind kind = core::MapperKind::kOriginal) {
  auto tree = config.build_tree();
  const core::DataSpace space(p, config.chunk_size_bytes);
  core::PipelineOptions options;
  options.mapper = kind;
  core::MappingPipeline pipeline(tree, options);
  const auto m = pipeline.run_all(p, space);
  const auto trace = generate_trace(p, space, m);
  auto engine = run_engine(trace, m, config, tree);
  return Run{engine, std::move(tree)};
}

TEST(Engine, ColdStreamMissesEverywhere) {
  const auto p = streaming_program();
  const auto run = run_tiny(p, tiny_machine());
  // One access per iteration, all cold: every level misses every access.
  EXPECT_EQ(run.engine.accesses, 256u);
  EXPECT_EQ(run.engine.disk_requests, 256u);
  EXPECT_EQ(run.engine.l1.accesses, 256u);
  EXPECT_EQ(run.engine.l1.hits, 0u);
  EXPECT_GT(run.engine.exec_time, 0u);
  EXPECT_GT(run.engine.io_time_total, run.engine.compute_time_total);
}

TEST(Engine, RereadHitsClientCache) {
  // Two passes over 4 chunks per client: the second pass hits L1.
  poly::Program p;
  const auto a = p.add_array({"A", {16}, 64 * kKiB});
  poly::LoopNest nest;
  nest.space = poly::IterationSpace::from_extents({2, 16});
  nest.refs = {{a, poly::AccessMap::from_matrix({{0, 1}}, {0}), false}};
  nest.compute_ns_per_iteration = 100;
  p.add_nest(std::move(nest));

  // Map by column blocks (inter-processor groups the two passes).
  const auto run = run_tiny(p, tiny_machine(),
                            core::MapperKind::kInterProcessor);
  EXPECT_GT(run.engine.l1.hits, 0u);
  EXPECT_LT(run.engine.disk_requests, run.engine.accesses);
}

TEST(Engine, StallComponentsSumToTotalIoTime) {
  // Where-the-time-went breakdown is a partition of the I/O stall total,
  // in both a disk-dominated and a cache-dominated run.
  const poly::Program programs[] = {streaming_program(128), [] {
    poly::Program p;
    const auto a = p.add_array({"A", {16}, 64 * kKiB});
    poly::LoopNest nest;
    nest.space = poly::IterationSpace::from_extents({2, 16});
    nest.refs = {{a, poly::AccessMap::from_matrix({{0, 1}}, {0}), false}};
    nest.compute_ns_per_iteration = 100;
    p.add_nest(std::move(nest));
    return p;
  }()};
  for (const auto& p : programs) {
    for (const auto kind : {core::MapperKind::kOriginal,
                            core::MapperKind::kInterProcessor}) {
      const auto run = run_tiny(p, tiny_machine(), kind);
      EXPECT_EQ(run.engine.time_client_cache + run.engine.time_shared_cache +
                    run.engine.time_peer_cache + run.engine.time_disk +
                    run.engine.time_retry + run.engine.time_failover,
                run.engine.io_time_total);
      EXPECT_LE(run.engine.time_disk_queue, run.engine.time_disk);
    }
  }
}

TEST(Engine, ComputeTimeAccountsPerIteration) {
  const auto p = streaming_program(64);
  const auto run = run_tiny(p, tiny_machine());
  EXPECT_EQ(run.engine.compute_time_total, 64u * 1000u);
}

TEST(Engine, ExecTimeIsMaxClientNotSum) {
  const auto p = streaming_program(64);
  const auto run = run_tiny(p, tiny_machine());
  EXPECT_LT(run.engine.exec_time, run.engine.io_time_total +
                                      run.engine.compute_time_total);
  EXPECT_GE(run.engine.exec_time,
            run.engine.io_time_max);
}

TEST(Engine, DiskQueueingSerializesOneSpindle) {
  // One storage node: concurrent misses from 4 clients must queue, so
  // exec time exceeds one client's service share.
  const auto p = streaming_program(64);
  auto config = tiny_machine();
  const auto run = run_tiny(p, config);
  const io::DiskModel disk(config.disk);
  const Nanoseconds min_serial =
      64 * disk.service_time(config.chunk_size_bytes, io::SeekClass::kFar) /
      4;
  EXPECT_GT(run.engine.exec_time, min_serial);
}

TEST(Engine, SyncEdgesInduceWaits) {
  // A dependence chain across clients: downstream clients must wait.
  poly::Program p;
  const auto a = p.add_array({"A", {256}, 64 * kKiB});
  poly::LoopNest nest;
  nest.space = poly::IterationSpace({{1, 255}});
  nest.refs = {
      {a, poly::AccessMap::identity(1, {0}), /*is_write=*/true},
      {a, poly::AccessMap::identity(1, {-1}), false},
  };
  nest.compute_ns_per_iteration = 1000;
  p.add_nest(std::move(nest));
  const auto run = run_tiny(p, tiny_machine(),
                            core::MapperKind::kInterProcessor);
  EXPECT_GT(run.engine.sync_wait_total, 0u);
}

TEST(Experiment, RunsEndToEndOnTinyWorkload) {
  const auto workload = workloads::make_workload("astro", 1.0 / 16.0);
  MachineConfig config;
  config.clients = 8;
  config.io_nodes = 4;
  config.storage_nodes = 2;
  config.client_cache_bytes = 2 * kMiB;
  config.io_cache_bytes = 2 * kMiB;
  config.storage_cache_bytes = 2 * kMiB;
  const auto orig =
      run_experiment(workload, core::PipelineOptions::original(), config);
  const auto inter =
      run_experiment(workload, core::PipelineOptions::inter(), config);
  EXPECT_GT(orig.exec_time, 0u);
  EXPECT_GT(orig.l1_miss_rate, 0.0);
  EXPECT_LE(orig.l1_miss_rate, 1.0);
  // The catalog-broadcast structure must favour the inter mapping.
  EXPECT_LT(inter.engine.disk_requests, orig.engine.disk_requests);
}

TEST(Experiment, SchemeNames) {
  EXPECT_EQ(core::PipelineOptions::original().name(), "original");
  EXPECT_EQ(core::PipelineOptions::intra().name(), "intra-processor");
  EXPECT_EQ(core::PipelineOptions::inter().name(), "inter-processor");
  EXPECT_EQ(core::PipelineOptions::inter_scheduled().name(),
            "inter-processor+sched");
}

}  // namespace
}  // namespace mlsc::sim
