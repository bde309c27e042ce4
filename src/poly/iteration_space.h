// Rectangular iteration spaces with lexicographic linearization.
//
// The paper's polyhedral set G = {(i1..in) | Lk <= ik <= Uk} (§4.1).
// Iteration chunks are stored as ranges of the lexicographic
// linearization of this space, so the space provides linearize /
// delinearize; poly::OrderWalker walks it.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "poly/affine.h"

namespace mlsc::poly {

/// One loop's inclusive bounds [lower, upper], unit stride.
struct LoopBounds {
  std::int64_t lower = 0;
  std::int64_t upper = -1;  // empty by default

  std::int64_t extent() const {
    return upper >= lower ? upper - lower + 1 : 0;
  }
  bool operator==(const LoopBounds&) const = default;
};

class IterationSpace {
 public:
  IterationSpace() = default;
  explicit IterationSpace(std::vector<LoopBounds> bounds);

  /// Convenience: bounds [0, extent_k) for each loop.
  static IterationSpace from_extents(
      const std::vector<std::int64_t>& extents);

  std::size_t depth() const { return bounds_.size(); }
  const LoopBounds& loop(std::size_t k) const { return bounds_[k]; }

  /// Total number of iterations (product of extents).
  std::uint64_t size() const { return size_; }
  bool empty() const { return size_ == 0; }

  bool contains(std::span<const std::int64_t> iter) const;

  /// Lexicographic rank of an iteration: outermost loop most significant.
  std::uint64_t linearize(std::span<const std::int64_t> iter) const;

  /// Inverse of linearize.
  Iteration delinearize(std::uint64_t rank) const;

  std::string to_string() const;
  bool operator==(const IterationSpace&) const = default;

 private:
  std::vector<LoopBounds> bounds_;
  std::uint64_t size_ = 0;
};

/// Half-open range [begin, end) of lexicographic ranks — the unit in
/// which iteration chunks own iterations.
struct LinearRange {
  std::uint64_t begin = 0;
  std::uint64_t end = 0;

  std::uint64_t size() const { return end > begin ? end - begin : 0; }
  bool empty() const { return size() == 0; }
  bool operator==(const LinearRange&) const = default;
};

/// Normalizes a range list: sorts, drops empties, merges adjacent and
/// overlapping ranges.  Total size is preserved for disjoint inputs.
std::vector<LinearRange> normalize_ranges(std::vector<LinearRange> ranges);

/// Sum of range sizes.
std::uint64_t total_range_size(const std::vector<LinearRange>& ranges);

}  // namespace mlsc::poly
