#include "poly/order.h"

#include <algorithm>
#include <numeric>
#include <sstream>

#include "support/check.h"

namespace mlsc::poly {

IterationOrder IterationOrder::identity(std::size_t depth) {
  IterationOrder order;
  order.permutation.resize(depth);
  std::iota(order.permutation.begin(), order.permutation.end(), 0);
  order.tile_sizes.assign(depth, 1);
  return order;
}

bool IterationOrder::is_identity() const {
  for (std::size_t k = 0; k < permutation.size(); ++k) {
    if (permutation[k] != k) return false;
  }
  for (std::int64_t t : tile_sizes) {
    if (t != 1) return false;
  }
  return true;
}

void IterationOrder::validate(const IterationSpace& space) const {
  MLSC_CHECK(permutation.size() == space.depth(),
             "permutation arity " << permutation.size() << " != depth "
                                  << space.depth());
  MLSC_CHECK(tile_sizes.size() == space.depth(),
             "tile-size arity " << tile_sizes.size() << " != depth "
                                << space.depth());
  std::vector<bool> seen(space.depth(), false);
  for (std::size_t p : permutation) {
    MLSC_CHECK(p < space.depth(), "permutation entry " << p << " out of range");
    MLSC_CHECK(!seen[p], "permutation repeats loop " << p);
    seen[p] = true;
  }
  for (std::int64_t t : tile_sizes) {
    MLSC_CHECK(t >= 1, "tile size must be >= 1, got " << t);
  }
}

std::string IterationOrder::to_string() const {
  std::ostringstream out;
  out << "perm(";
  for (std::size_t k = 0; k < permutation.size(); ++k) {
    if (k != 0) out << ",";
    out << "i" << permutation[k];
  }
  out << ") tiles(";
  for (std::size_t k = 0; k < tile_sizes.size(); ++k) {
    if (k != 0) out << ",";
    out << tile_sizes[k];
  }
  out << ")";
  return out.str();
}

OrderWalker::OrderWalker(const IterationSpace& space, IterationOrder order,
                         std::uint64_t position)
    : space_(space), order_(std::move(order)), depth_(space.depth()) {
  order_.validate(space_);
  // An untiled order is walked as one tile spanning the space: the same
  // sequence, with rows that skip_in_row() can step along.
  if (std::ranges::all_of(order_.tile_sizes,
                          [](std::int64_t t) { return t == 1; })) {
    for (std::size_t axis = 0; axis < depth_; ++axis) {
      order_.tile_sizes[axis] =
          std::max<std::int64_t>(1, space_.loop(axis).extent());
    }
  }
  tile_counts_.resize(depth_);
  tile_index_.assign(depth_, 0);
  point_extent_.resize(depth_);
  point_index_.assign(depth_, 0);
  current_.resize(depth_);
  for (std::size_t j = 0; j < depth_; ++j) {
    const std::size_t axis = order_.permutation[j];
    const std::int64_t extent = space_.loop(axis).extent();
    const std::int64_t tile = order_.tile_sizes[axis];
    tile_counts_[j] = (extent + tile - 1) / tile;
  }
  seek(position);
}

void OrderWalker::seek(std::uint64_t position) {
  const std::uint64_t size = space_.size();
  MLSC_CHECK(position <= size,
             "seek to " << position << " past the space's " << size);
  position_ = position;
  done_ = position == size;
  if (done_) return;
  // Tiles come in lexicographic order of their tile indices, and every
  // tile but the last along an axis is full.  With the outer tile
  // indices fixed, the tiles before index t along permuted axis j hold
  // (points of the fixed outer tiles) * t * tile_j * (all of the inner
  // axes' extents) positions, so one division per axis finds t.
  std::uint64_t rest = position;
  std::uint64_t outer = 1;  // points per tile of the fixed outer axes
  for (std::size_t j = 0; j < depth_; ++j) {
    const std::size_t axis = order_.permutation[j];
    const std::int64_t extent = space_.loop(axis).extent();
    const std::int64_t tile = order_.tile_sizes[axis];
    std::uint64_t inner = 1;
    for (std::size_t r = j + 1; r < depth_; ++r) {
      inner *= static_cast<std::uint64_t>(
          space_.loop(order_.permutation[r]).extent());
    }
    const std::uint64_t slab = outer * static_cast<std::uint64_t>(tile) * inner;
    tile_index_[j] = static_cast<std::int64_t>(rest / slab);
    rest -= static_cast<std::uint64_t>(tile_index_[j]) * slab;
    outer *= static_cast<std::uint64_t>(
        std::min(tile, extent - tile_index_[j] * tile));
  }
  recompute_point_extents();
  // The rest is a lexicographic rank inside the tile.
  for (std::size_t j = depth_; j-- > 0;) {
    const auto extent = static_cast<std::uint64_t>(point_extent_[j]);
    point_index_[j] = static_cast<std::int64_t>(rest % extent);
    rest /= extent;
  }
  materialize_current();
}

void OrderWalker::recompute_point_extents() {
  for (std::size_t j = 0; j < depth_; ++j) {
    const std::size_t axis = order_.permutation[j];
    const std::int64_t extent = space_.loop(axis).extent();
    const std::int64_t tile = order_.tile_sizes[axis];
    const std::int64_t start = tile_index_[j] * tile;
    point_extent_[j] = std::min(tile, extent - start);
  }
}

void OrderWalker::materialize_current() {
  for (std::size_t j = 0; j < depth_; ++j) {
    const std::size_t axis = order_.permutation[j];
    const std::int64_t tile = order_.tile_sizes[axis];
    current_[axis] =
        space_.loop(axis).lower + tile_index_[j] * tile + point_index_[j];
  }
}

void OrderWalker::next() {
  MLSC_DCHECK(!done_, "next() past the end");
  ++position_;
  // Advance point loops, innermost (last permuted axis) first.
  for (std::size_t j = depth_; j-- > 0;) {
    if (point_index_[j] + 1 < point_extent_[j]) {
      ++point_index_[j];
      for (std::size_t r = j + 1; r < depth_; ++r) point_index_[r] = 0;
      materialize_current();
      return;
    }
  }
  // Point loops exhausted: advance tile loops, innermost first.
  for (std::size_t j = depth_; j-- > 0;) {
    if (tile_index_[j] + 1 < tile_counts_[j]) {
      ++tile_index_[j];
      for (std::size_t r = j + 1; r < depth_; ++r) tile_index_[r] = 0;
      std::fill(point_index_.begin(), point_index_.end(), 0);
      recompute_point_extents();
      materialize_current();
      return;
    }
  }
  done_ = true;
}

}  // namespace mlsc::poly
