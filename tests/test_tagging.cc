#include "core/tagging.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <optional>
#include <unordered_map>

#include "support/rng.h"
#include "support/thread_pool.h"

namespace mlsc::core {
namespace {

/// The paper's Fig. 6 example, expressible in the affine IR because the
/// A[x] (x = i % d) reference always lands in data chunk π0: we model it
/// as the constant reference A[0].  d = 8 elements of 64 B; A has 12
/// chunks; the loop runs i = 0 .. 8d-1.
poly::Program fig6_program(std::int64_t d = 8) {
  poly::Program p;
  const auto a = p.add_array({"A", {12 * d}, 64});
  poly::LoopNest nest;
  nest.name = "fig6";
  nest.space = poly::IterationSpace({{0, 8 * d - 1}});
  nest.refs = {
      {a, poly::AccessMap::identity(1, {0}), /*is_write=*/true},  // A[i]
      {a, poly::AccessMap::from_matrix({{0}}, {0}), false},       // A[x]
      {a, poly::AccessMap::identity(1, {4 * d}), false},          // A[i+4d]
      {a, poly::AccessMap::identity(1, {2 * d}), false},          // A[i+2d]
  };
  p.add_nest(std::move(nest));
  return p;
}

TEST(Tagging, Fig6ProducesEightChunksWithFig8Tags) {
  const auto p = fig6_program();
  const DataSpace space(p, 64 * 8);  // chunk = d elements
  EXPECT_EQ(space.num_chunks(), 12u);

  const std::vector<poly::NestId> nests{0};
  const auto result = compute_iteration_chunks(p, space, nests);
  EXPECT_FALSE(result.coarsened);
  ASSERT_EQ(result.chunks.size(), 8u);
  EXPECT_EQ(result.total_iterations, 64u);

  // Fig. 8's tags, in rank order.
  const std::vector<std::string> expected = {
      "101010000000", "110101000000", "101010100000", "100101010000",
      "100010101000", "100001010100", "100000101010", "100000010101",
  };
  for (std::size_t i = 0; i < 8; ++i) {
    EXPECT_EQ(result.chunks[i].tag.to_string(12), expected[i])
        << "γ" << (i + 1);
    EXPECT_EQ(result.chunks[i].iterations, 8u);
  }
}

TEST(Tagging, Fig8GraphWeights) {
  const auto p = fig6_program();
  const DataSpace space(p, 64 * 8);
  const std::vector<poly::NestId> nests{0};
  const auto result = compute_iteration_chunks(p, space, nests);
  const auto weight = [&](std::size_t a, std::size_t b) {
    return result.chunks[a].tag.common_bits(result.chunks[b].tag);
  };
  // Fig. 8: γ1-γ3 weight 3, γ1-γ5 weight 2, γ1-γ2 weight 1 (not drawn).
  EXPECT_EQ(weight(0, 2), 3u);
  EXPECT_EQ(weight(0, 4), 2u);
  EXPECT_EQ(weight(0, 1), 1u);
  EXPECT_EQ(weight(2, 4), 3u);  // γ3-γ5
  EXPECT_EQ(weight(1, 3), 3u);  // γ2-γ4
}

TEST(Tagging, RecurringTagIsOneChunkWithManyRanges) {
  // A[i % 2 == parity] style recurrence: two alternating tags.  Model:
  // 1-deep loop where footprint alternates between chunk 0 and chunk 1
  // via B[i] with element = half chunk: runs of 2 share a tag.
  poly::Program p;
  const auto b = p.add_array({"B", {8}, 32});  // 4 chunks of 64 B
  poly::LoopNest nest;
  nest.space = poly::IterationSpace({{0, 7}});
  nest.refs = {{b, poly::AccessMap::identity(1, {0}), false}};
  p.add_nest(std::move(nest));
  const DataSpace space(p, 64);
  const std::vector<poly::NestId> nests{0};
  const auto result = compute_iteration_chunks(p, space, nests);
  // Elements 0,1 -> chunk 0; 2,3 -> chunk 1; ... 4 distinct tags, each a
  // contiguous run of 2 iterations.
  ASSERT_EQ(result.chunks.size(), 4u);
  for (const auto& c : result.chunks) {
    EXPECT_EQ(c.iterations, 2u);
    EXPECT_EQ(c.ranges.size(), 1u);
  }
}

TEST(Tagging, CoarseningBoundsChunkCountAndKeepsPartition) {
  const auto p = fig6_program(32);  // 256 iterations, 8 natural chunks
  const DataSpace space(p, 64);     // fine chunks: many distinct tags
  const std::vector<poly::NestId> nests{0};
  TaggingOptions options;
  options.max_iteration_chunks = 16;
  const auto result = compute_iteration_chunks(p, space, nests, options);
  EXPECT_LE(result.chunks.size(), 16u);
  std::uint64_t covered = 0;
  for (const auto& c : result.chunks) covered += c.iterations;
  EXPECT_EQ(covered, result.total_iterations);
}

TEST(Tagging, MultiNestChunksCarryNestIds) {
  poly::Program p;
  const auto a = p.add_array({"A", {16}, 64});
  for (int n = 0; n < 2; ++n) {
    poly::LoopNest nest;
    nest.space = poly::IterationSpace({{0, 15}});
    nest.refs = {{a, poly::AccessMap::identity(1, {0}), n == 0}};
    p.add_nest(std::move(nest));
  }
  const DataSpace space(p, 256);  // 4 chunks
  const std::vector<poly::NestId> nests{0, 1};
  const auto result = compute_iteration_chunks(p, space, nests);
  EXPECT_EQ(result.total_iterations, 32u);
  bool saw_nest0 = false;
  bool saw_nest1 = false;
  for (const auto& c : result.chunks) {
    saw_nest0 |= (c.nest == 0);
    saw_nest1 |= (c.nest == 1);
  }
  EXPECT_TRUE(saw_nest0);
  EXPECT_TRUE(saw_nest1);
}

TEST(Tagging, FootprintHelperMatchesRefs) {
  const auto p = fig6_program();
  const DataSpace space(p, 64 * 8);
  std::vector<std::uint32_t> out;
  const poly::Iteration iter{0};
  iteration_footprint(p, p.nest(0), space, iter, out);
  EXPECT_EQ(out, (std::vector<std::uint32_t>{0, 2, 4}));  // γ1's tag
}


// ---------------------------------------------------------------------
// Differential oracle: the straightforward algorithm — one footprint per
// iteration, an unordered_map hash-cons of whole ChunkTags, and pairwise
// merge_chunks rounds that re-sort the table every round — against the
// run-skipping walk, the arena hash-cons and the one-pass coarsening.

std::vector<IterationChunk> reference_chunks(
    const poly::Program& program, const DataSpace& space,
    const std::vector<poly::NestId>& nests) {
  std::vector<IterationChunk> chunks;
  std::unordered_map<ChunkTag, std::size_t, ChunkTagHash> index;
  std::vector<std::uint32_t> footprint;
  for (poly::NestId nest_id : nests) {
    const poly::LoopNest& nest = program.nest(nest_id);
    if (nest.space.empty()) continue;
    poly::Iteration iter = nest.space.first();
    for (std::uint64_t rank = 0; rank < nest.space.size(); ++rank) {
      iteration_footprint(program, nest, space, iter, footprint);
      auto [it, inserted] =
          index.try_emplace(ChunkTag::from_bits(footprint), chunks.size());
      if (inserted) {
        IterationChunk chunk;
        chunk.nest = nest_id;
        chunk.tag = it->first;
        chunks.push_back(std::move(chunk));
      }
      IterationChunk& chunk = chunks[it->second];
      if (!chunk.ranges.empty() && chunk.ranges.back().end == rank) {
        chunk.ranges.back().end = rank + 1;
      } else {
        chunk.ranges.push_back(poly::LinearRange{rank, rank + 1});
      }
      chunk.iterations += 1;
      nest.space.advance(iter);
    }
    index.clear();
  }
  return chunks;
}

std::vector<IterationChunk> reference_coarsen(
    std::vector<IterationChunk> chunks, std::uint32_t bound) {
  while (chunks.size() > bound) {
    std::sort(chunks.begin(), chunks.end(),
              [](const IterationChunk& a, const IterationChunk& b) {
                if (a.nest != b.nest) return a.nest < b.nest;
                return a.first_rank() < b.first_rank();
              });
    std::vector<IterationChunk> next;
    std::size_t i = 0;
    while (i < chunks.size()) {
      const std::size_t projected = next.size() + (chunks.size() - i);
      if (projected > bound && i + 1 < chunks.size() &&
          chunks[i].nest == chunks[i + 1].nest) {
        next.push_back(merge_chunks(chunks[i], chunks[i + 1]));
        i += 2;
      } else {
        next.push_back(std::move(chunks[i]));
        i += 1;
      }
    }
    const bool merged = next.size() < chunks.size();
    chunks = std::move(next);
    if (!merged) break;
  }
  return chunks;
}

/// A reference whose indices the generator still has to place in bounds.
struct PendingRef {
  poly::NestId nest = 0;
  poly::ArrayId array = 0;
  std::vector<std::vector<std::int64_t>> coeffs;  // rank x depth
  bool is_write = false;
  bool indirect = false;
};

/// A random valid program: one or two nests of depth 1-3 (one of at least
/// 2048 iterations when `big`), references with negative, zero and
/// positive coefficients, constant references, and at most one indirect
/// reference, over arrays whose element sizes straddle the chunk size.
/// Returns nothing when an array came out larger than `kMaxElements`.
constexpr std::uint64_t kMaxElements = std::uint64_t{1} << 19;

std::optional<poly::Program> try_random_program(mlsc::Rng& rng, bool big) {
  const auto below = [&](std::uint64_t n) {
    return static_cast<std::int64_t>(rng.next_below(n));
  };
  constexpr std::uint64_t kElementSizes[] = {4,  7,  8,   24,  33,
                                             40, 100, 200, 300};
  const std::size_t num_arrays = 1 + static_cast<std::size_t>(below(3));
  std::vector<std::size_t> ranks(num_arrays);
  for (auto& r : ranks) r = 1 + static_cast<std::size_t>(below(3));

  poly::Program p;
  std::vector<PendingRef> pending;
  bool has_indirect = false;
  const std::size_t num_nests = 1 + static_cast<std::size_t>(below(2));
  for (std::size_t n = 0; n < num_nests; ++n) {
    const std::size_t depth = 1 + static_cast<std::size_t>(below(3));
    std::vector<poly::LoopBounds> bounds(depth);
    for (std::size_t k = 0; k < depth; ++k) {
      std::int64_t extent = 1 + below(depth == 1 ? 300 : 12);
      if (big && n == 0) {
        extent = depth == 1 ? 2048 + below(1000)
                 : depth == 2 ? 46 + below(20)
                              : 13 + below(4);
      }
      bounds[k].lower = below(5) - 2;
      bounds[k].upper = bounds[k].lower + extent - 1;
    }
    poly::LoopNest nest;
    nest.name = "n" + std::to_string(n);
    nest.space = poly::IterationSpace(bounds);
    p.add_nest(std::move(nest));

    const std::size_t num_refs = 1 + static_cast<std::size_t>(below(4));
    for (std::size_t r = 0; r < num_refs; ++r) {
      PendingRef ref;
      ref.nest = static_cast<poly::NestId>(n);
      ref.array = static_cast<poly::ArrayId>(below(num_arrays));
      ref.is_write = below(4) == 0;
      ref.indirect = !has_indirect && below(6) == 0;
      has_indirect |= ref.indirect;
      const bool constant = below(6) == 0;
      ref.coeffs.assign(ref.indirect ? 1 : ranks[ref.array],
                        std::vector<std::int64_t>(depth, 0));
      for (std::size_t d = 0; d < ref.coeffs.size(); ++d) {
        for (std::size_t k = 0; k < depth; ++k) {
          // Long loops drive only the last array dim, so arrays stay small.
          const bool long_loop = bounds[k].extent() > 64;
          const bool zero =
              constant || (long_loop && d + 1 < ref.coeffs.size());
          ref.coeffs[d][k] = zero ? 0 : below(5) - 2;
        }
      }
      pending.push_back(std::move(ref));
    }
  }

  // Offsets that put every index at or above zero, then array extents
  // (and index-table sizes) that hold the largest index.
  std::vector<std::vector<std::int64_t>> dims(num_arrays);
  for (std::size_t a = 0; a < num_arrays; ++a) dims[a].assign(ranks[a], 1);
  struct Placed {
    PendingRef ref;
    std::vector<std::int64_t> offsets;
    std::int64_t positions = 0;  // index-table size (indirect only)
  };
  std::vector<Placed> placed;
  for (PendingRef& ref : pending) {
    const poly::IterationSpace& space = p.nest(ref.nest).space;
    Placed out;
    for (std::size_t d = 0; d < ref.coeffs.size(); ++d) {
      std::int64_t lo = 0;
      std::int64_t hi = 0;
      for (std::size_t k = 0; k < space.depth(); ++k) {
        const std::int64_t c = ref.coeffs[d][k];
        const std::int64_t a = c * space.loop(k).lower;
        const std::int64_t b = c * space.loop(k).upper;
        lo += std::min(a, b);
        hi += std::max(a, b);
      }
      const std::int64_t offset = below(3) - lo;
      out.offsets.push_back(offset);
      const std::int64_t extent = hi + offset + 1 + below(3);
      if (ref.indirect) {
        out.positions = extent;
      } else {
        dims[ref.array][d] = std::max(dims[ref.array][d], extent);
      }
    }
    out.ref = std::move(ref);
    placed.push_back(std::move(out));
  }
  for (std::size_t a = 0; a < num_arrays; ++a) {
    std::uint64_t elements = 1;
    for (std::int64_t extent : dims[a]) {
      elements *= static_cast<std::uint64_t>(extent);
    }
    if (elements > kMaxElements) return std::nullopt;
    p.add_array({"A" + std::to_string(a), dims[a],
                 kElementSizes[rng.next_below(std::size(kElementSizes))]});
  }
  for (Placed& entry : placed) {
    poly::ArrayRef ref;
    ref.array = entry.ref.array;
    ref.map = poly::AccessMap::from_matrix(entry.ref.coeffs, entry.offsets);
    ref.is_write = entry.ref.is_write;
    if (entry.ref.indirect) {
      poly::IndexTable table;
      table.name = "idx";
      const std::uint64_t elements = p.array(ref.array).num_elements();
      for (std::int64_t i = 0; i < entry.positions; ++i) {
        // Mostly runs of one element so that tags recur and repeat.
        table.values.push_back(
            i > 0 && below(3) != 0
                ? table.values.back()
                : static_cast<std::int64_t>(rng.next_below(elements)));
      }
      ref.index_table = p.add_index_table(std::move(table));
    }
    p.nests[entry.ref.nest].refs.push_back(std::move(ref));
  }
  p.validate();
  return p;
}

poly::Program random_program(mlsc::Rng& rng, bool big) {
  for (;;) {
    if (auto p = try_random_program(rng, big)) return std::move(*p);
  }
}

void expect_same_table(const TaggingResult& got,
                       const std::vector<IterationChunk>& want,
                       bool want_coarsened, const std::string& what) {
  EXPECT_EQ(got.coarsened, want_coarsened) << what;
  ASSERT_EQ(got.chunks.size(), want.size()) << what;
  for (std::size_t i = 0; i < want.size(); ++i) {
    EXPECT_EQ(got.chunks[i].nest, want[i].nest) << what << " chunk " << i;
    EXPECT_EQ(got.chunks[i].tag, want[i].tag) << what << " chunk " << i;
    EXPECT_EQ(got.chunks[i].ranges, want[i].ranges) << what << " chunk " << i;
    EXPECT_EQ(got.chunks[i].iterations, want[i].iterations)
        << what << " chunk " << i;
  }
}

TEST(Tagging, MatchesPerIterationReferenceOnRandomPrograms) {
  ThreadPool pool(4);
  constexpr std::uint64_t kChunkSizes[] = {64, 96, 128, 256};
  std::size_t crossings = 0;  // runs that span a parallel block boundary
  for (std::uint64_t seed = 0; seed < 240; ++seed) {
    mlsc::Rng rng(seed);
    const bool big = seed % 2 == 0;
    const poly::Program p = random_program(rng, big);
    const DataSpace space(
        p, kChunkSizes[rng.next_below(std::size(kChunkSizes))]);
    std::vector<poly::NestId> nests(p.nests.size());
    for (std::size_t n = 0; n < nests.size(); ++n) {
      nests[n] = static_cast<poly::NestId>(n);
    }
    if (nests.size() == 2 && rng.next_below(2) == 0) {
      std::reverse(nests.begin(), nests.end());
    }

    const std::vector<IterationChunk> exact =
        reference_chunks(p, space, nests);
    const auto natural = static_cast<std::uint32_t>(exact.size());
    const std::uint32_t caps[] = {
        1, 2 + static_cast<std::uint32_t>(rng.next_below(15)), natural,
        std::numeric_limits<std::uint32_t>::max()};
    for (std::uint32_t cap : caps) {
      const bool coarsened = natural > cap;
      const std::vector<IterationChunk> want =
          coarsened ? reference_coarsen(exact, cap) : exact;
      TaggingOptions options;
      options.max_iteration_chunks = cap;
      const std::string what =
          "seed " + std::to_string(seed) + " cap " + std::to_string(cap);
      const auto serial = compute_iteration_chunks(p, space, nests, options);
      expect_same_table(serial, want, coarsened, what + " serial");
      EXPECT_EQ(serial.total_iterations, p.total_iterations()) << what;
      const auto parallel =
          compute_iteration_chunks(p, space, nests, options, &pool);
      expect_same_table(parallel, want, coarsened, what + " pool");
    }

    for (const auto& chunk : exact) {
      const std::uint64_t size = p.nest(chunk.nest).space.size();
      if (size < 2048) continue;
      const std::uint64_t grain = pool.default_grain(size);
      for (const auto& range : chunk.ranges) {
        if ((range.end - 1) / grain != range.begin / grain) ++crossings;
      }
    }
  }
  EXPECT_GT(crossings, 0u);
}

}  // namespace
}  // namespace mlsc::core
