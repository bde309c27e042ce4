// The loop-nest IR the mapping pass consumes.
//
// This plays the role of the Phoenix compiler IR in the paper: workload
// programs are written as Programs of LoopNests over disk-resident
// ArrayDecls, and every pass (tagging, mapping, scheduling, codegen)
// operates on this representation.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "poly/affine.h"
#include "poly/iteration_space.h"
#include "support/units.h"

namespace mlsc::poly {

using ArrayId = std::uint32_t;
using NestId = std::uint32_t;

/// A disk-resident array: logical dimensions in elements plus the size of
/// one element in bytes.  Out-of-core codes use coarse elements (records,
/// tiles); the element size expresses that granularity.
struct ArrayDecl {
  std::string name;
  std::vector<std::int64_t> dims;  // extent per dimension, elements
  std::uint64_t element_size_bytes = 8;

  std::uint64_t num_elements() const {
    std::uint64_t n = 1;
    for (std::int64_t d : dims) n *= static_cast<std::uint64_t>(d);
    return n;
  }
  std::uint64_t size_bytes() const {
    return num_elements() * element_size_bytes;
  }

  /// True when the index vector is inside the array bounds.
  bool in_bounds(std::span<const std::int64_t> index) const;
};

/// A materialized index array for irregular (gather/scatter) references:
/// a 1-D table of flat element indices into some target array.  The
/// paper lists irregular access patterns as future work (§7); this is
/// the extension that supports them.
struct IndexTable {
  std::string name;
  std::vector<std::int64_t> values;  // flat element indices, 1-D
};

using IndexTableId = std::int32_t;
inline constexpr IndexTableId kNoIndexTable = -1;

/// One array reference in a loop body: which array, the affine map from
/// iterations to indices, and whether it writes.
///
/// Direct reference  (index_table < 0):  element = map(iter), row-major.
/// Indirect reference (index_table set): map must be rank 1; the accessed
/// flat element is table.values[map(iter)] — e.g. nodes[edge_src[e]].
struct ArrayRef {
  ArrayId array = 0;
  AccessMap map;
  bool is_write = false;
  IndexTableId index_table = kNoIndexTable;

  bool is_indirect() const { return index_table != kNoIndexTable; }
};

/// A (possibly parallelized) loop nest over disk-resident arrays.
struct LoopNest {
  std::string name;
  IterationSpace space;
  std::vector<ArrayRef> refs;

  /// Simulated compute cost of one iteration, excluding I/O stalls.
  Nanoseconds compute_ns_per_iteration = 100;

  std::size_t depth() const { return space.depth(); }
};

/// A whole application: its disk-resident arrays plus its loop nests.
struct Program {
  std::string name;
  std::vector<ArrayDecl> arrays;
  std::vector<LoopNest> nests;
  std::vector<IndexTable> index_tables;

  ArrayId add_array(ArrayDecl decl);
  NestId add_nest(LoopNest nest);
  IndexTableId add_index_table(IndexTable table);

  const ArrayDecl& array(ArrayId id) const;
  const LoopNest& nest(NestId id) const;
  const IndexTable& index_table(IndexTableId id) const;

  /// Total bytes across all disk-resident arrays.
  std::uint64_t total_data_bytes() const;

  /// Total iterations across all nests.
  std::uint64_t total_iterations() const;

  /// Validates that every reference stays in bounds on the corner points
  /// of its iteration space (cheap smoke check used by workload ctors),
  /// and that every index table entry is a valid element of every array
  /// accessed through it.
  void validate() const;
};

/// The flat element index `ref` accesses at `iter` — the one place that
/// understands both direct (row-major affine) and indirect (index-table)
/// references.  Used by tagging, trace generation and the locality model.
std::uint64_t resolve_element(const Program& program, const ArrayRef& ref,
                              std::span<const std::int64_t> iter);

}  // namespace mlsc::poly
