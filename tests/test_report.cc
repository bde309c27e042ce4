#include "sim/report.h"

#include <gtest/gtest.h>

#include <sstream>

#include "core/client_codegen.h"
#include "support/check.h"
#include "workloads/registry.h"

namespace mlsc::sim {
namespace {

MachineConfig small_machine() {
  MachineConfig config;
  config.clients = 8;
  config.io_nodes = 4;
  config.storage_nodes = 2;
  config.client_cache_bytes = 2 * kMiB;
  config.io_cache_bytes = 2 * kMiB;
  config.storage_cache_bytes = 2 * kMiB;
  return config;
}

TEST(SchemeSpec, PipelineOptionsCarryEveryField) {
  SchemeSpec scheme = SchemeSpec::inter_scheduled(0.25, 0.75);
  scheme.balance_threshold = 0.2;
  scheme.tagging.max_iteration_chunks = 123;
  scheme.dependences = core::DependenceStrategy::kMergeClusters;
  scheme.clustering.algorithm = core::ClusterOptions::Algorithm::kForest;
  scheme.num_threads = 3;
  MachineConfig config = small_machine();
  config.client_cache_bytes = 1 * kMiB;
  const core::PipelineOptions options = pipeline_options(scheme, config);
  EXPECT_EQ(options.mapper, scheme.mapper);
  EXPECT_TRUE(options.schedule);
  EXPECT_EQ(options.scheduler.alpha, 0.25);
  EXPECT_EQ(options.scheduler.beta, 0.75);
  EXPECT_EQ(options.balance_threshold, 0.2);
  EXPECT_EQ(options.tagging.max_iteration_chunks, 123u);
  EXPECT_EQ(options.dependences, core::DependenceStrategy::kMergeClusters);
  EXPECT_EQ(options.clustering.algorithm,
            core::ClusterOptions::Algorithm::kForest);
  EXPECT_EQ(options.num_threads, 3u);
  EXPECT_EQ(options.intra.client_cache_bytes, 1 * kMiB);
}

TEST(SchemeSpec, IntraTilingFollowsTheClientCache) {
  // The intra-processor scheme tiles for the client cache it is given:
  // hf's emitted client code at 1 MiB is not the 32 MiB code.
  const auto workload = workloads::make_workload("hf", 1.0 / 16.0);
  const auto client_code = [&](std::uint64_t cache_bytes) {
    MachineConfig config = small_machine();
    config.client_cache_bytes = cache_bytes;
    const auto tree = config.build_tree();
    const core::DataSpace space(workload.program, config.chunk_size_bytes);
    const core::MappingPipeline pipeline(
        tree, pipeline_options(SchemeSpec::intra(), config));
    return core::emit_all_clients_source(
        workload.program, pipeline.run_all(workload.program, space));
  };
  EXPECT_NE(client_code(1 * kMiB), client_code(32 * kMiB));
}

TEST(Report, SingleExperimentRendersEverySection) {
  const auto workload = workloads::make_workload("astro", 1.0 / 16.0);
  const auto config = small_machine();
  const auto result = run_experiment(workload, SchemeSpec::inter(), config);
  std::ostringstream out;
  write_report(out, result, config);
  const auto text = out.str();
  EXPECT_NE(text.find("L1 (compute)"), std::string::npos);
  EXPECT_NE(text.find("L3 (storage)"), std::string::npos);
  EXPECT_NE(text.find("disk service+queue"), std::string::npos);
  EXPECT_NE(text.find("execution time:"), std::string::npos);
}

TEST(Report, StallBreakdownSumsToIoTime) {
  const auto workload = workloads::make_workload("hf", 1.0 / 16.0);
  const auto config = small_machine();
  const auto r = run_experiment(workload, SchemeSpec::original(), config);
  const auto& e = r.engine;
  EXPECT_EQ(e.time_client_cache + e.time_shared_cache + e.time_peer_cache +
                e.time_disk + e.time_retry + e.time_failover,
            e.io_time_total);
  EXPECT_LE(e.time_disk_queue, e.time_disk);
}

TEST(Report, ComparisonNormalizesToFirst) {
  const auto workload = workloads::make_workload("astro", 1.0 / 16.0);
  const auto config = small_machine();
  std::vector<ExperimentResult> results{
      run_experiment(workload, SchemeSpec::original(), config),
      run_experiment(workload, SchemeSpec::inter(), config),
  };
  const auto table = comparison_table(results);
  EXPECT_EQ(table.num_rows(), 2u);
  std::ostringstream csv;
  table.print_csv(csv);
  // The first row normalizes to exactly 1.000.
  EXPECT_NE(csv.str().find("1.000"), std::string::npos);
}

TEST(Report, ComparisonRejectsMixedWorkloads) {
  auto a = ExperimentResult{};
  a.workload = "x";
  a.io_latency = 1;
  a.exec_time = 1;
  auto b = ExperimentResult{};
  b.workload = "y";
  EXPECT_THROW(comparison_table({a, b}), mlsc::Error);
  EXPECT_THROW(comparison_table({}), mlsc::Error);
}

TEST(Report, RunAllSchemesReturnsTheFourVersions) {
  const auto workload = workloads::make_workload("sar", 1.0 / 16.0);
  const auto results = run_all_schemes(workload, small_machine());
  ASSERT_EQ(results.size(), 4u);
  EXPECT_EQ(results[0].scheme, "original");
  EXPECT_EQ(results[1].scheme, "intra-processor");
  EXPECT_EQ(results[2].scheme, "inter-processor");
  EXPECT_EQ(results[3].scheme, "inter-processor+sched");
}

}  // namespace
}  // namespace mlsc::sim
