#include "sim/trace.h"

#include <gtest/gtest.h>

#include <map>

#include "core/baselines.h"
#include "core/pipeline.h"
#include "support/check.h"
#include "workloads/registry.h"

namespace mlsc::sim {
namespace {

/// Tiny two-array program with one 2-deep nest.
poly::Program tiny_program() {
  poly::Program p;
  const auto a = p.add_array({"A", {8, 8}, 64});
  const auto b = p.add_array({"B", {8, 8}, 64});
  poly::LoopNest nest;
  nest.name = "tiny";
  nest.space = poly::IterationSpace::from_extents({8, 8});
  nest.refs = {
      {a, poly::AccessMap::identity(2, {0, 0}), false},
      {b, poly::AccessMap::identity(2, {0, 0}), /*is_write=*/true},
  };
  nest.compute_ns_per_iteration = 10;
  p.add_nest(std::move(nest));
  return p;
}

topology::HierarchyTree tiny_tree() {
  return topology::make_layered_hierarchy(4, 2, 1, 1024, 1024, 1024);
}

TEST(Trace, CoversEveryIterationOnce) {
  const auto p = tiny_program();
  const auto tree = tiny_tree();
  const core::DataSpace space(p, 128);
  core::MappingPipeline pipeline(tree);
  const auto m = pipeline.run_all(p, space);
  const auto trace = generate_trace(p, space, m);
  std::uint64_t iterations = 0;
  for (const auto& ct : trace.clients) {
    iterations += ct.total_iterations();
    // Access stream and per-iteration counts must agree.
    std::uint64_t total = 0;
    for (std::uint8_t n : ct.accesses_per_iteration) total += n;
    EXPECT_EQ(total, ct.accesses.size());
  }
  EXPECT_EQ(iterations, 64u);
}

TEST(Trace, EveryIterationEmitsPerRefAccesses) {
  const auto p = tiny_program();
  const auto tree = tiny_tree();
  const core::DataSpace space(p, 128);
  core::MappingPipeline pipeline(tree);
  const auto m = pipeline.run_all(p, space);
  const auto trace = generate_trace(p, space, m);
  // Each iteration touches A (64 B in a 128 B chunk: 1 chunk) and B (1):
  // 2 accesses per iteration, one of them a write.
  std::uint64_t reads = 0;
  std::uint64_t writes = 0;
  for (const auto& ct : trace.clients) {
    for (std::uint8_t n : ct.accesses_per_iteration) EXPECT_EQ(n, 2);
    for (const auto& access : ct.accesses) {
      (access.is_write ? writes : reads) += 1;
    }
  }
  EXPECT_EQ(reads, 64u);
  EXPECT_EQ(writes, 64u);
}

TEST(Trace, ItemsAlignWithMapping) {
  const auto p = tiny_program();
  const auto tree = tiny_tree();
  const core::DataSpace space(p, 128);
  core::MappingPipeline pipeline(tree);
  const auto m = pipeline.run_all(p, space);
  const auto trace = generate_trace(p, space, m);
  for (std::size_t c = 0; c < m.num_clients(); ++c) {
    ASSERT_EQ(trace.clients[c].items.size(), m.client_work[c].size());
    for (std::size_t k = 0; k < m.client_work[c].size(); ++k) {
      EXPECT_EQ(trace.clients[c].items[k].iterations,
                m.client_work[c][k].iterations);
    }
  }
}

/// A 32x32 nest reading A[j][i] and writing B[j][i] (both transposed).
/// With 64 B elements and 128 B chunks, the identity order walks both
/// arrays down their columns, a new chunk per iteration, so a client
/// cache of a few chunks favours the interchanged order.
poly::Program transposed_program() {
  poly::Program p;
  const auto a = p.add_array({"A", {32, 32}, 64});
  const auto b = p.add_array({"B", {32, 32}, 64});
  poly::LoopNest nest;
  nest.name = "transpose";
  nest.space = poly::IterationSpace::from_extents({32, 32});
  nest.refs = {
      {a, poly::AccessMap::from_matrix({{0, 1}, {1, 0}}, {0, 0}), false},
      {b, poly::AccessMap::from_matrix({{0, 1}, {1, 0}}, {0, 0}),
       /*is_write=*/true},
  };
  nest.compute_ns_per_iteration = 10;
  p.add_nest(std::move(nest));
  return p;
}

TEST(Trace, TransformedOrderVisitsSameChunksAsIdentity) {
  // The intra-processor (permuted or tiled) traversal must access exactly
  // the same multiset of chunks as the original, just in a different order.
  const auto p = transposed_program();
  const auto tree = tiny_tree();
  const core::DataSpace space(p, 128);
  ASSERT_FALSE(
      core::choose_locality_order(p, space, p.nest(0), 1024).is_identity())
      << "the program must make the intra-processor mapper transform";

  auto count_accesses = [&](core::MapperKind kind) {
    core::PipelineOptions options;
    options.mapper = kind;
    core::MappingPipeline pipeline(tree, options);
    const auto m = pipeline.run_all(p, space);
    bool transformed = false;
    for (const auto& work : m.client_work) {
      for (const auto& item : work) transformed |= !item.order.is_identity();
    }
    EXPECT_EQ(transformed, kind == core::MapperKind::kIntraProcessor);
    const auto trace = generate_trace(p, space, m);
    std::map<core::ChunkId, std::uint64_t> counts;
    for (const auto& ct : trace.clients) {
      for (const auto& access : ct.accesses) ++counts[access.chunk];
    }
    return counts;
  };
  EXPECT_EQ(count_accesses(core::MapperKind::kOriginal),
            count_accesses(core::MapperKind::kIntraProcessor));
}

}  // namespace
}  // namespace mlsc::sim
