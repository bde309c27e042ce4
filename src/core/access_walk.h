// The access stream of one nest's iterations, computed on demand.
//
// Every iteration issues one request per array reference per data chunk
// the referenced element covers (the paper's platform sends one MPI-IO
// request per reference, and each request interrogates the storage cache
// hierarchy).  AccessWalk yields that stream for a list of position
// ranges of one nest under one IterationOrder, one iteration at a time,
// so nothing per access is ever stored.
//
// Each reference's flat element (or, for an indirect reference, its
// index-table position) is affine in the iteration vector, so the walk
// keeps it as a running value and adds one coefficient per loop index
// that changed: a step of the innermost loop costs one add per reference
// instead of a full evaluation of the access map.
//
// Tagging walks with it too: an iteration's tag is its accesses' chunks,
// and repeats() / skip() let it evaluate one per segment of equal ones.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "core/data_space.h"
#include "poly/order.h"

namespace mlsc::core {

struct ChunkAccess {
  ChunkId chunk = 0;
  bool is_write = false;
};

class AccessWalk {
 public:
  /// Walks `ranges` (positions in `order`'s traversal of `nest`, each
  /// within the nest's size) in list order.  The program, space, nest
  /// and ranges must outlive the walk.  Throws unless each direct
  /// reference's map has one expression per array dimension, the rule
  /// Program::validate applies.
  AccessWalk(const poly::Program& program, const DataSpace& space,
             const poly::LoopNest& nest, const poly::IterationOrder& order,
             std::span<const poly::LinearRange> ranges);

  /// True once every position of every range has been visited.
  bool done() const { return range_ == ranges_.size(); }

  /// Moves to the next iteration and returns its accesses: references
  /// in nest order, each reference's chunks ascending.  The span stays
  /// valid until the next call.  At most 255 per iteration, a bound on
  /// this buffer that also binds tagging.
  std::span<const ChunkAccess> next();

  /// How many positions after the last next(), within its range and its
  /// innermost row, return the same accesses.  Zero when a reference
  /// that moves along the row is indirect; otherwise one division per
  /// moving reference finds where its chunk span changes.
  std::uint64_t repeats() const;

  /// Passes over the next `count` positions, at most repeats(), in
  /// O(references).
  void skip(std::uint64_t count);

 private:
  struct Ref {
    const std::int64_t* table = nullptr;  // index table (indirect only)
    poly::ArrayId array = 0;
    std::uint64_t element_size = 0;  // bytes
    std::int64_t base = 0;  // value at the all-zero iteration
    bool is_write = false;
  };

  /// Makes the first non-empty range from `range` on current.
  void open_range(std::size_t range);
  /// Opens the next range once the walker is at the current one's end.
  void end_visit();

  /// Positions the walker at the current range's start and evaluates
  /// every reference there from scratch.
  void start_range();

  /// Moves the walker, loop index `inner_` and every reference's value
  /// `count` steps along the row.
  void step_in_row(std::uint64_t count);

  const DataSpace& space_;
  std::span<const poly::LinearRange> ranges_;
  std::size_t range_ = 0;
  bool fresh_ = true;  // the walker is not yet at the range's start
  poly::OrderWalker walker_;
  std::size_t inner_ = 0;  // the loop index a step along a row moves
  std::vector<Ref> refs_;
  /// coeffs_[k * refs + r]: change of reference r's value per unit step
  /// of loop index k.
  std::vector<std::int64_t> coeffs_;
  std::vector<std::int64_t> values_;  // per reference, at `at_`
  poly::Iteration at_;                // the iteration `values_` describe
  std::vector<ChunkAccess> accesses_;
};

}  // namespace mlsc::core
