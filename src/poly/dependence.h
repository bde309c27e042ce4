// Data dependence analysis over the loop-nest IR.
//
// Used in two places (paper §3 and §5.4): the default parallelization
// strategy ("place all data dependences into inner loop positions, then
// parallelize the outermost dependence-free loop"), and the dependence-
// aware mapping extension (dependences become sharing edges; correctness
// is restored with synchronization at schedule time).
#pragma once

#include <optional>
#include <string>
#include <vector>

#include "poly/loop_nest.h"

namespace mlsc::poly {

/// A per-loop dependence distance.  nullopt means the distance is not a
/// compile-time constant in that loop ("*" direction, treated
/// conservatively as carried).
using Distance = std::vector<std::optional<std::int64_t>>;

struct Dependence {
  std::size_t src_ref = 0;  // index into LoopNest::refs (the source access)
  std::size_t dst_ref = 0;  // index into LoopNest::refs (the sink access)
  Distance distance;        // sink iteration minus source iteration

  /// Index of the outermost loop with a non-zero (or unknown) distance,
  /// or nullopt for a loop-independent dependence (all-zero distance).
  std::optional<std::size_t> carried_level() const;

  std::string to_string() const;
};

/// All flow/anti/output dependences between reference pairs of a nest
/// (pairs touching the same array where at least one access writes).
/// Uniform pairs (same access matrix) yield constant distances; other
/// pairs are screened with a per-dimension GCD test and reported with
/// unknown ("*") distances when the test cannot disprove them.
std::vector<Dependence> find_dependences(const LoopNest& nest);

}  // namespace mlsc::poly
