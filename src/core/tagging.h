// Tag computation: iterations -> iteration chunks (paper §4.2).
//
// Walks each nest in lexicographic order with core::AccessWalk and
// groups iterations by the set of data chunks they touch (their tag).
// The footprint is evaluated once per segment of the innermost loop over
// which no reference changes its chunk span (AccessWalk::repeats), so
// the cost follows the number of tag runs rather than iterations.  The
// walk's bound of 255 chunks per iteration holds here too.
// Consecutive equal-tag iterations extend the current rank range;
// recurring tags are hash-consed into one iteration chunk with several
// ranges, exactly matching the paper's definition (an iteration chunk is
// the set of *all* iterations with one tag).
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "core/data_space.h"
#include "core/iteration_chunk.h"
#include "poly/loop_nest.h"
#include "support/thread_pool.h"

namespace mlsc::core {

struct TaggingOptions {
  /// Upper bound on the number of iteration chunks.  The exact chunking
  /// can produce one chunk per iteration for patterns with no adjacent
  /// tag equality; beyond this bound, chunks adjacent in rank order are
  /// merged pairwise (tags unioned) until within it.  This is the one
  /// approximation over the paper's formulation; set it high (or to the
  /// iteration count) for exact behaviour on small problems.
  std::uint32_t max_iteration_chunks = 4096;
};

struct TaggingResult {
  std::vector<IterationChunk> chunks;
  std::uint64_t total_iterations = 0;
  std::uint32_t num_data_chunks = 0;  // r, the tag width
  bool coarsened = false;             // true when the bound forced merges
};

/// Sorted, deduplicated data-chunk footprint of one iteration, the
/// per-iteration definition the tag of every iteration matches.
/// `out` is cleared and reused to avoid per-iteration allocation.
void iteration_footprint(const poly::Program& program,
                         const poly::LoopNest& nest, const DataSpace& space,
                         std::span<const std::int64_t> iter,
                         std::vector<std::uint32_t>& out);

/// Computes the iteration chunks of the given nests (multi-nest handling,
/// §5.4: the iteration sets of all listed nests are simply combined; the
/// returned chunks carry their owning nest id).
///
/// When `pool` is non-null each nest's rank space is tagged in parallel
/// blocks whose run-length encodings are stitched back together; the RLE
/// of a tag sequence is canonical, so the resulting chunk table is
/// bit-identical to the serial walk for any thread count.
TaggingResult compute_iteration_chunks(const poly::Program& program,
                                       const DataSpace& space,
                                       std::span<const poly::NestId> nests,
                                       const TaggingOptions& options = {},
                                       ThreadPool* pool = nullptr);

}  // namespace mlsc::core
