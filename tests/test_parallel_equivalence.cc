// Serial/parallel equivalence: the mapping pipeline must produce
// bit-identical results for every thread count (DESIGN.md threading
// model).  Runs the full pipeline serially and with 4 threads across
// several workloads and two topologies, plus a regression test for chunk
// tables larger than the old 8192-node similarity-graph cap.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "core/clustering.h"
#include "core/mapper.h"
#include "core/pair_scorer.h"
#include "core/pipeline.h"
#include "sim/experiment.h"
#include "support/rng.h"
#include "workloads/registry.h"

namespace mlsc::core {
namespace {

topology::HierarchyTree wide_tree() {
  return topology::make_layered_hierarchy(8, 4, 2, 4 * kMiB, 4 * kMiB,
                                          4 * kMiB);
}

topology::HierarchyTree narrow_tree() {
  return topology::make_layered_hierarchy(4, 2, 1, 1024, 1024, 1024);
}

workloads::Workload tiny(const std::string& name) {
  return workloads::make_workload(name, 1.0 / 16.0);
}

// Exact structural equality of two mappings: same work on the same
// client in the same order, down to every position range and chunk id.
void expect_identical(const MappingResult& serial, const MappingResult& par,
                      const std::string& context) {
  ASSERT_EQ(serial.client_work.size(), par.client_work.size()) << context;
  for (std::size_t c = 0; c < serial.client_work.size(); ++c) {
    const auto& ws = serial.client_work[c];
    const auto& wp = par.client_work[c];
    ASSERT_EQ(ws.size(), wp.size()) << context << " client " << c;
    for (std::size_t i = 0; i < ws.size(); ++i) {
      SCOPED_TRACE(context + " client " + std::to_string(c) + " item " +
                   std::to_string(i));
      EXPECT_EQ(ws[i].nest, wp[i].nest);
      EXPECT_EQ(ws[i].iterations, wp[i].iterations);
      EXPECT_EQ(ws[i].chunk, wp[i].chunk);
      ASSERT_EQ(ws[i].ranges.size(), wp[i].ranges.size());
      for (std::size_t r = 0; r < ws[i].ranges.size(); ++r) {
        EXPECT_EQ(ws[i].ranges[r].begin, wp[i].ranges[r].begin);
        EXPECT_EQ(ws[i].ranges[r].end, wp[i].ranges[r].end);
      }
    }
  }
  ASSERT_EQ(serial.chunk_table.size(), par.chunk_table.size()) << context;
  for (std::size_t i = 0; i < serial.chunk_table.size(); ++i) {
    EXPECT_EQ(serial.chunk_table[i].iterations, par.chunk_table[i].iterations)
        << context << " chunk " << i;
  }
}

class ParallelEquivalenceTest : public ::testing::TestWithParam<std::string> {};

TEST_P(ParallelEquivalenceTest, FourThreadsMatchSerialOnBothTopologies) {
  const auto workload = tiny(GetParam());
  const DataSpace space(workload.program, 64 * kKiB);
  const auto trees = {wide_tree(), narrow_tree()};
  std::size_t topology_index = 0;
  for (const auto& tree : trees) {
    PipelineOptions serial_options;
    serial_options.num_threads = 1;
    PipelineOptions parallel_options;
    parallel_options.num_threads = 4;
    const auto serial =
        MappingPipeline(tree, serial_options).run_all(workload.program, space);
    const auto parallel = MappingPipeline(tree, parallel_options)
                              .run_all(workload.program, space);
    expect_identical(serial, parallel,
                     GetParam() + " topology " + std::to_string(topology_index));
    serial.validate_partition(workload.program);
    ++topology_index;
  }
}

TEST_P(ParallelEquivalenceTest, ScheduledMappingAlsoMatches) {
  const auto workload = tiny(GetParam());
  const DataSpace space(workload.program, 64 * kKiB);
  const auto tree = wide_tree();
  PipelineOptions serial_options;
  serial_options.schedule = true;
  serial_options.num_threads = 1;
  PipelineOptions parallel_options;
  parallel_options.schedule = true;
  parallel_options.num_threads = 4;
  const auto serial =
      MappingPipeline(tree, serial_options).run_all(workload.program, space);
  const auto parallel =
      MappingPipeline(tree, parallel_options).run_all(workload.program, space);
  EXPECT_TRUE(parallel.scheduled);
  expect_identical(serial, parallel, GetParam() + " scheduled");
}

INSTANTIATE_TEST_SUITE_P(Workloads, ParallelEquivalenceTest,
                         ::testing::Values("hf", "sar", "astro", "madbench2"),
                         [](const auto& info) { return info.param; });

// Synthetic chunk table with windowed tag sharing (same construction the
// scaling bench uses): nearby chunks overlap, distant ones do not.
std::vector<IterationChunk> synthetic_chunks(std::size_t n) {
  Rng rng(41);
  const std::size_t width = 2048;
  std::vector<IterationChunk> chunks;
  chunks.reserve(n);
  std::uint64_t pos = 0;
  for (std::size_t i = 0; i < n; ++i) {
    const std::size_t window_lo = i * width / n;
    std::vector<std::uint32_t> bits;
    for (int b = 0; b < 12; ++b) {
      bits.push_back(static_cast<std::uint32_t>(
          (window_lo + rng.next_below(width / 8)) % width));
    }
    IterationChunk c;
    c.tag = ChunkTag::from_bits(std::move(bits));
    const std::uint64_t len = 10 + rng.next_below(30);
    c.ranges = {poly::LinearRange{pos, pos + len}};
    c.iterations = len;
    pos += len;
    chunks.push_back(std::move(c));
  }
  return chunks;
}

TEST(ParallelEquivalence, GraphAndMapperHandleMoreThan8192Chunks) {
  // Regression: the similarity graph used to reject > 8192 nodes, which
  // capped the mapper's chunk tables.
  const std::size_t n = 8192 + 128;
  const auto chunks = synthetic_chunks(n);

  const auto rows = score_chunk_tags(chunks, nullptr);
  EXPECT_EQ(rows.size(), n);
  std::size_t pairs = 0;
  for (const auto& row : rows) pairs += row.size();
  EXPECT_GT(pairs, 0u);

  const auto tree = narrow_tree();
  HierarchicalMapperOptions serial_options;
  serial_options.num_threads = 1;
  HierarchicalMapperOptions parallel_options;
  parallel_options.num_threads = 4;
  const auto serial =
      HierarchicalMapper(tree, serial_options).map_chunks(chunks);
  const auto parallel =
      HierarchicalMapper(tree, parallel_options).map_chunks(chunks);
  EXPECT_EQ(serial.num_clients(), 4u);
  expect_identical(serial, parallel, "synthetic >8192");
}

// Forest-kernel determinism: the parallel affinity-forest clustering
// (candidate scoring fan-out + Borůvka best-neighbor CAS races) must
// produce member-identical clusters at every thread count.  Runs under
// TSan via the concurrency label.
TEST(ParallelEquivalence, ForestClusteringIsThreadCountInvariant) {
  const std::size_t n = 3000;
  const auto base_chunks = synthetic_chunks(n);
  std::vector<std::uint32_t> all(n);
  for (std::size_t i = 0; i < n; ++i) all[i] = static_cast<std::uint32_t>(i);

  ClusterOptions options;
  options.algorithm = ClusterOptions::Algorithm::kForest;

  auto run = [&](std::size_t threads) {
    auto chunks = base_chunks;
    auto clusters = make_singletons(all, chunks);
    if (threads <= 1) {
      cluster_to_count(clusters, 16, chunks, nullptr, options);
    } else {
      ThreadPool pool(threads);
      cluster_to_count(clusters, 16, chunks, &pool, options);
    }
    return clusters;
  };

  const auto serial = run(1);
  ASSERT_EQ(serial.size(), 16u);
  for (const std::size_t threads : {std::size_t{2}, std::size_t{4}}) {
    const auto parallel = run(threads);
    ASSERT_EQ(parallel.size(), serial.size()) << "threads=" << threads;
    for (std::size_t i = 0; i < serial.size(); ++i) {
      SCOPED_TRACE("threads=" + std::to_string(threads) + " cluster " +
                   std::to_string(i));
      EXPECT_EQ(serial[i].members, parallel[i].members);
      EXPECT_EQ(serial[i].iterations, parallel[i].iterations);
    }
  }
}

// Faulted replay determinism: the engine is serial and the mapping is
// thread-count-invariant, so one seed + one fault schedule must give a
// bit-identical EngineResult for every mapping-stage thread count —
// with and without remap-on-failure.
void expect_identical_engines(const sim::EngineResult& a,
                              const sim::EngineResult& b,
                              const std::string& context) {
  SCOPED_TRACE(context);
  EXPECT_EQ(a.exec_time, b.exec_time);
  EXPECT_EQ(a.io_time_total, b.io_time_total);
  EXPECT_EQ(a.io_time_max, b.io_time_max);
  EXPECT_EQ(a.compute_time_total, b.compute_time_total);
  EXPECT_EQ(a.sync_wait_total, b.sync_wait_total);
  EXPECT_EQ(a.time_client_cache, b.time_client_cache);
  EXPECT_EQ(a.time_shared_cache, b.time_shared_cache);
  EXPECT_EQ(a.time_peer_cache, b.time_peer_cache);
  EXPECT_EQ(a.time_disk, b.time_disk);
  EXPECT_EQ(a.time_disk_queue, b.time_disk_queue);
  EXPECT_EQ(a.time_retry, b.time_retry);
  EXPECT_EQ(a.time_failover, b.time_failover);
  EXPECT_EQ(a.accesses, b.accesses);
  EXPECT_EQ(a.disk_requests, b.disk_requests);
  EXPECT_EQ(a.disk_writebacks, b.disk_writebacks);
  EXPECT_EQ(a.peer_hits, b.peer_hits);
  EXPECT_EQ(a.faults_applied, b.faults_applied);
  EXPECT_EQ(a.transient_errors, b.transient_errors);
  EXPECT_EQ(a.retries, b.retries);
  EXPECT_EQ(a.retry_timeouts, b.retry_timeouts);
  EXPECT_EQ(a.failovers, b.failovers);
  EXPECT_EQ(a.fault_stall_total, b.fault_stall_total);
  EXPECT_EQ(a.l1.hits, b.l1.hits);
  EXPECT_EQ(a.l2.hits, b.l2.hits);
  EXPECT_EQ(a.l3.hits, b.l3.hits);
}

TEST(ParallelEquivalence, FaultedReplayIsThreadCountInvariant) {
  const auto workload = tiny("astro");
  sim::MachineConfig config;
  config.clients = 8;
  config.io_nodes = 4;
  config.storage_nodes = 2;
  config.client_cache_bytes = 2 * kMiB;
  config.io_cache_bytes = 2 * kMiB;
  config.storage_cache_bytes = 2 * kMiB;

  for (const bool remap : {false, true}) {
    sim::ResilienceSpec resilience;
    resilience.schedule = resilience::parse_fault_spec(
        "fail@1ms:l2.0; transient@0:disk=0.02,net=0.001; seed=2010");
    resilience.remap_on_failure = remap;

    auto scheme = core::PipelineOptions::inter();
    scheme.num_threads = 1;
    const auto serial =
        sim::run_experiment(workload, scheme, config, &resilience);
    EXPECT_GT(serial.engine.transient_errors, 0u);
    for (const std::size_t threads : {std::size_t{2}, std::size_t{4}}) {
      scheme.num_threads = threads;
      const auto parallel =
          sim::run_experiment(workload, scheme, config, &resilience);
      expect_identical_engines(
          serial.engine, parallel.engine,
          std::string(remap ? "remap" : "no-remap") + " threads=" +
              std::to_string(threads));
      EXPECT_EQ(serial.fault_summary, parallel.fault_summary);
      EXPECT_EQ(serial.remapped, parallel.remapped);
    }
  }
}

}  // namespace
}  // namespace mlsc::core
