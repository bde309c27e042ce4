// Iteration orders: lexicographic, permuted, and tiled traversals.
//
// The intra-processor baseline (paper §5.1) applies loop permutation and
// iteration-space tiling before block-partitioning iterations across
// clients.  An IterationOrder captures those transformations and
// OrderWalker enumerates the space in the transformed order.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "poly/iteration_space.h"

namespace mlsc::poly {

/// A legal reordering of a nest's traversal: a loop permutation (outer to
/// inner, entries are original loop indices) plus a tile size per
/// original loop (1 = untiled).  Tiling produces the classic structure:
/// tile loops over all permuted axes first, then point loops within the
/// current tile in the same permuted order.
struct IterationOrder {
  std::vector<std::size_t> permutation;
  std::vector<std::int64_t> tile_sizes;

  /// Identity order of the given depth (plain lexicographic traversal).
  static IterationOrder identity(std::size_t depth);

  bool is_identity() const;
  std::size_t depth() const { return permutation.size(); }

  /// Throws unless the permutation is a bijection and tile sizes are >= 1.
  void validate(const IterationSpace& space) const;

  std::string to_string() const;
};

/// Enumerates an iteration space in a transformed order.  Visits every
/// iteration exactly once; `current()` is always expressed in original
/// loop-index order so array maps apply unchanged.  The walk can start
/// at, or jump to, any position of the transformed sequence.
class OrderWalker {
 public:
  /// Starts at `position` (0 = the first iteration; the space's size =
  /// already done).  `space` must outlive the walker.
  OrderWalker(const IterationSpace& space, IterationOrder order,
              std::uint64_t position = 0);

  bool done() const { return done_; }
  const Iteration& current() const { return current_; }

  /// Advances to the next iteration in transformed order.
  void next();

  /// Jumps to `position` (at most the space's size) in O(depth).
  void seek(std::uint64_t position);

  /// Positions after the current one in its row, the innermost point
  /// loop of its tile, along which only loop `permutation.back()` moves.
  /// Always zero when some loops are tiled but the innermost is not.
  std::uint64_t row_remaining() const {
    return static_cast<std::uint64_t>(point_extent_[depth_ - 1] - 1 -
                                      point_index_[depth_ - 1]);
  }

  /// Moves `count` (at most row_remaining()) steps along the row in O(1).
  void skip_in_row(std::uint64_t count) {
    position_ += count;
    point_index_[depth_ - 1] += static_cast<std::int64_t>(count);
    current_[order_.permutation[depth_ - 1]] +=
        static_cast<std::int64_t>(count);
  }

  /// Position in the transformed sequence, starting at 0.
  std::uint64_t position() const { return position_; }

 private:
  void recompute_point_extents();
  void materialize_current();

  const IterationSpace& space_;
  IterationOrder order_;
  std::size_t depth_;
  bool done_ = false;
  std::uint64_t position_ = 0;

  // Virtual loop counters: tiles (outer), then points within the tile.
  std::vector<std::int64_t> tile_counts_;   // per permuted axis
  std::vector<std::int64_t> tile_index_;    // current tile per permuted axis
  std::vector<std::int64_t> point_extent_;  // extent of the current tile
  std::vector<std::int64_t> point_index_;   // offset inside current tile
  Iteration current_;
};

}  // namespace mlsc::poly
