#include "sim/trace.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <map>
#include <sstream>
#include <string>

#include "core/access_walk.h"
#include "core/baselines.h"
#include "core/pipeline.h"
#include "sim/machine.h"
#include "support/check.h"
#include "support/rng.h"
#include "workloads/irregular.h"
#include "workloads/registry.h"

namespace mlsc::sim {
namespace {

/// One client's access stream as the engine replays it: each work item
/// walked in turn.
struct Stream {
  std::vector<std::uint8_t> per_iteration;  // accesses per iteration
  std::vector<core::ChunkAccess> accesses;
};

Stream client_stream(const poly::Program& p, const core::DataSpace& space,
                     const core::MappingResult& m, std::size_t client) {
  Stream out;
  for (const core::WorkItem& work : m.client_work[client]) {
    core::AccessWalk walk(p, space, p.nest(work.nest), work.order,
                          work.ranges);
    std::uint64_t iterations = 0;
    while (!walk.done()) {
      const auto accesses = walk.next();
      out.per_iteration.push_back(static_cast<std::uint8_t>(accesses.size()));
      out.accesses.insert(out.accesses.end(), accesses.begin(),
                          accesses.end());
      ++iterations;
    }
    EXPECT_EQ(iterations, work.iterations);
  }
  return out;
}

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
  for (std::size_t c = 0; c < trace.clients.size(); ++c) {
    const Stream stream = client_stream(p, space, m, c);
    EXPECT_EQ(stream.per_iteration.size(), trace.clients[c].total_iterations());
    iterations += trace.clients[c].total_iterations();
  }
  EXPECT_EQ(iterations, 64u);
}

TEST(Trace, EveryIterationEmitsPerRefAccesses) {
  const auto p = tiny_program();
  const auto tree = tiny_tree();
  const core::DataSpace space(p, 128);
  core::MappingPipeline pipeline(tree);
  const auto m = pipeline.run_all(p, space);
  // Each iteration touches A (64 B in a 128 B chunk: 1 chunk) and B (1):
  // 2 accesses per iteration, one of them a write.
  std::uint64_t reads = 0;
  std::uint64_t writes = 0;
  for (std::size_t c = 0; c < m.num_clients(); ++c) {
    const Stream stream = client_stream(p, space, m, c);
    for (std::uint8_t n : stream.per_iteration) EXPECT_EQ(n, 2);
    for (const auto& access : stream.accesses) {
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
    std::map<core::ChunkId, std::uint64_t> counts;
    for (std::size_t c = 0; c < m.num_clients(); ++c) {
      for (const auto& access : client_stream(p, space, m, c).accesses) {
        ++counts[access.chunk];
      }
    }
    return counts;
  };
  EXPECT_EQ(count_accesses(core::MapperKind::kOriginal),
            count_accesses(core::MapperKind::kIntraProcessor));
}

/// Every position's accesses under `order`, each reference resolved from
/// scratch.
std::vector<std::vector<core::ChunkAccess>> oracle_accesses(
    const poly::Program& p, const core::DataSpace& space,
    const poly::LoopNest& nest, const poly::IterationOrder& order) {
  std::vector<std::vector<core::ChunkAccess>> oracle;
  for (poly::OrderWalker w(nest.space, order); !w.done(); w.next()) {
    auto& out = oracle.emplace_back();
    for (const poly::ArrayRef& ref : nest.refs) {
      const auto span = space.element_chunks(
          ref.array, poly::resolve_element(p, ref, w.current()));
      for (core::ChunkId c = span.first; c <= span.last; ++c) {
        out.push_back(core::ChunkAccess{c, ref.is_write});
      }
    }
  }
  return oracle;
}

/// Random sorted disjoint ranges over [0, size).
std::vector<poly::LinearRange> random_ranges(Rng& rng, std::uint64_t size) {
  std::vector<poly::LinearRange> ranges;
  for (std::uint64_t pos = rng.next_below(3); pos < size;) {
    const std::uint64_t end =
        std::min<std::uint64_t>(size, pos + rng.next_below(40));
    ranges.push_back(poly::LinearRange{pos, end});
    pos = end + rng.next_below(60);
  }
  return ranges;
}

bool same_accesses(std::span<const core::ChunkAccess> a,
                   std::span<const core::ChunkAccess> b) {
  return std::ranges::equal(a, b, [](const auto& x, const auto& y) {
    return x.chunk == y.chunk && x.is_write == y.is_write;
  });
}

TEST(AccessWalk, MatchesResolveElementOverRandomRanges) {
  // Oracle: walk the whole order from 0 and resolve every reference of
  // every iteration from scratch.  The walk over random sorted disjoint
  // ranges must yield exactly the oracle's accesses at those positions,
  // for direct (transposed, tiled) and indirect (irregular) references.
  const workloads::Workload irregular = workloads::make_irregular(0.0625);
  const poly::Program transposed = transposed_program();
  Rng rng(7);
  for (const poly::Program* p : {&transposed, &irregular.program}) {
    const core::DataSpace space(*p, 128);
    for (const poly::LoopNest& nest : p->nests) {
      poly::IterationOrder order = poly::IterationOrder::identity(nest.depth());
      if (p == &transposed) {
        order.permutation = {1, 0};
        order.tile_sizes = {5, 3};
      }
      const auto oracle = oracle_accesses(*p, space, nest, order);
      for (int trial = 0; trial < 20; ++trial) {
        const auto ranges = random_ranges(rng, oracle.size());
        core::AccessWalk walk(*p, space, nest, order, ranges);
        for (const poly::LinearRange& range : ranges) {
          for (std::uint64_t pos = range.begin; pos < range.end; ++pos) {
            ASSERT_FALSE(walk.done());
            const auto got = walk.next();
            ASSERT_EQ(got.size(), oracle[pos].size()) << nest.name << " " << pos;
            for (std::size_t i = 0; i < got.size(); ++i) {
              EXPECT_EQ(got[i].chunk, oracle[pos][i].chunk);
              EXPECT_EQ(got[i].is_write, oracle[pos][i].is_write);
            }
          }
        }
        EXPECT_TRUE(walk.done());
      }
    }
  }
}

TEST(AccessWalk, SkipsOnlyRepeatedIterations) {
  // After each next(), every one of the repeats() positions that follow
  // must repeat its accesses, and a skip of any part of them must land
  // where the oracle says.
  const workloads::Workload irregular = workloads::make_irregular(0.0625);
  const poly::Program transposed = transposed_program();
  Rng rng(11);
  std::uint64_t skipped = 0;
  for (const poly::Program* p : {&transposed, &irregular.program}) {
    const core::DataSpace space(*p, 128);
    for (const poly::LoopNest& nest : p->nests) {
      for (const bool tiled : {false, true}) {
        poly::IterationOrder order =
            poly::IterationOrder::identity(nest.depth());
        if (tiled && nest.depth() == 2) {
          order.permutation = {1, 0};
          order.tile_sizes = {5, 3};
        }
        const auto oracle = oracle_accesses(*p, space, nest, order);
        for (int trial = 0; trial < 10; ++trial) {
          const auto ranges = random_ranges(rng, oracle.size());
          core::AccessWalk walk(*p, space, nest, order, ranges);
          for (const poly::LinearRange& range : ranges) {
            for (std::uint64_t pos = range.begin; pos < range.end;) {
              ASSERT_FALSE(walk.done());
              ASSERT_TRUE(same_accesses(walk.next(), oracle[pos]))
                  << nest.name << " " << pos;
              const std::uint64_t repeats = walk.repeats();
              ASSERT_LT(pos + repeats, range.end);
              for (std::uint64_t r = 1; r <= repeats; ++r) {
                EXPECT_TRUE(same_accesses(oracle[pos + r], oracle[pos]))
                    << nest.name << " " << pos << "+" << r;
              }
              const std::uint64_t count = rng.next_below(repeats + 1);
              walk.skip(count);
              skipped += count;
              pos += 1 + count;
            }
          }
          EXPECT_TRUE(walk.done());
        }
      }
    }
  }
  EXPECT_GT(skipped, 0u);
}

TEST(AccessWalk, RejectsAnIterationOverTheChunkLimit) {
  // One element of 256 chunks: a single iteration would issue 256
  // accesses, one more than an iteration may.
  poly::Program p;
  const auto a = p.add_array({"A", {4}, 256 * 128});
  poly::LoopNest nest;
  nest.space = poly::IterationSpace::from_extents({4});
  nest.refs = {{a, poly::AccessMap::identity(1, {0}), false}};
  p.add_nest(std::move(nest));
  const core::DataSpace space(p, 128);
  const poly::LinearRange all{0, 4};
  core::AccessWalk walk(p, space, p.nest(0),
                        poly::IterationOrder::identity(1), {&all, 1});
  EXPECT_THROW(walk.next(), mlsc::Error);
}

TEST(AccessWalk, RejectsAMapOfTheWrongArity) {
  // A rank-1 map cannot address a rank-2 array.
  poly::Program p;
  const auto a = p.add_array({"A", {2, 16}, 64});
  poly::LoopNest nest;
  nest.space = poly::IterationSpace::from_extents({2, 16});
  nest.refs = {{a, poly::AccessMap::from_matrix({{0, 1}}, {0}), false}};
  p.add_nest(std::move(nest));
  const core::DataSpace space(p, 128);
  const poly::LinearRange all{0, 32};
  EXPECT_THROW(core::AccessWalk(p, space, p.nest(0),
                                poly::IterationOrder::identity(2), {&all, 1}),
               mlsc::Error);
}

/// FNV-1a (64-bit) over each iteration's access count (1 byte), then per
/// access its chunk id (4 bytes, little-endian) and write flag (1 byte):
/// the encoding tests/data/trace_stream_hashes.txt was recorded in.
std::uint64_t stream_hash(const Stream& stream) {
  std::uint64_t h = 1469598103934665603ull;
  auto feed = [&](std::uint8_t byte) {
    h ^= byte;
    h *= 1099511628211ull;
  };
  std::size_t a = 0;
  for (const std::uint8_t n : stream.per_iteration) {
    feed(n);
    for (std::uint8_t k = 0; k < n; ++k, ++a) {
      const core::ChunkId chunk = stream.accesses[a].chunk;
      for (int shift = 0; shift < 32; shift += 8) {
        feed(static_cast<std::uint8_t>(chunk >> shift));
      }
      feed(stream.accesses[a].is_write ? 1 : 0);
    }
  }
  return h;
}

class TraceStream : public ::testing::TestWithParam<std::string> {};

TEST_P(TraceStream, MatchesRecordedHashes) {
  // Every client's walked stream, for every scheme, must hash to what
  // the materialized trace produced: the walk is the same stream.
  const std::string name = GetParam();
  const workloads::Workload w = name == "irregular"
                                    ? workloads::make_irregular(0.0625)
                                    : workloads::make_workload(name, 0.0625);
  std::map<std::string, std::string> recorded;  // "scheme client" -> rest
  std::ifstream in(MLSC_TEST_DATA_DIR "/trace_stream_hashes.txt");
  ASSERT_TRUE(in) << "missing trace_stream_hashes.txt";
  for (std::string line; std::getline(in, line);) {
    std::istringstream fields(line);
    std::string workload, scheme, client, rest;
    fields >> workload >> scheme >> client;
    std::getline(fields, rest);
    if (workload == name) recorded[scheme + " " + client] = rest;
  }

  const MachineConfig config = MachineConfig::paper_default();
  const auto tree = config.build_tree();
  const core::DataSpace space(w.program, config.chunk_size_bytes);
  const std::pair<const char*, core::PipelineOptions> schemes[] = {
      {"original", core::PipelineOptions::original()},
      {"intra", core::PipelineOptions::intra()},
      {"inter", core::PipelineOptions::inter()},
      {"sched", core::PipelineOptions::inter_scheduled()}};
  std::size_t compared = 0;
  for (const auto& [scheme, options] : schemes) {
    core::MappingPipeline pipeline(tree, options);
    const auto m = pipeline.run_all(w.program, space);
    const auto trace = generate_trace(w.program, space, m);
    for (std::size_t c = 0; c < m.num_clients(); ++c) {
      const Stream stream = client_stream(w.program, space, m, c);
      char got[96];
      std::snprintf(got, sizeof got, " %llu %zu %016llx",
                    static_cast<unsigned long long>(
                        trace.clients[c].total_iterations()),
                    stream.accesses.size(),
                    static_cast<unsigned long long>(stream_hash(stream)));
      const std::string key = std::string(scheme) + " " + std::to_string(c);
      EXPECT_EQ(got, recorded[key]) << name << " " << key;
      ++compared;
    }
  }
  EXPECT_EQ(compared, recorded.size());
}

INSTANTIATE_TEST_SUITE_P(AllWorkloads, TraceStream,
                         ::testing::Values("hf", "sar", "contour", "astro",
                                           "e_elem", "apsi", "madbench2",
                                           "wupwise", "irregular"),
                         [](const auto& info) { return info.param; });

}  // namespace
}  // namespace mlsc::sim
