#include "poly/loop_nest.h"

#include "support/check.h"

namespace mlsc::poly {

bool ArrayDecl::in_bounds(std::span<const std::int64_t> index) const {
  if (index.size() != dims.size()) return false;
  for (std::size_t d = 0; d < dims.size(); ++d) {
    if (index[d] < 0 || index[d] >= dims[d]) return false;
  }
  return true;
}

ArrayId Program::add_array(ArrayDecl decl) {
  arrays.push_back(std::move(decl));
  return static_cast<ArrayId>(arrays.size() - 1);
}

NestId Program::add_nest(LoopNest nest) {
  nests.push_back(std::move(nest));
  return static_cast<NestId>(nests.size() - 1);
}

IndexTableId Program::add_index_table(IndexTable table) {
  index_tables.push_back(std::move(table));
  return static_cast<IndexTableId>(index_tables.size() - 1);
}

const ArrayDecl& Program::array(ArrayId id) const {
  MLSC_CHECK(id < arrays.size(), "array id " << id << " out of range");
  return arrays[id];
}

const IndexTable& Program::index_table(IndexTableId id) const {
  MLSC_CHECK(id >= 0 && static_cast<std::size_t>(id) < index_tables.size(),
             "index table " << id << " out of range");
  return index_tables[static_cast<std::size_t>(id)];
}

std::uint64_t resolve_element(const Program& program, const ArrayRef& ref,
                              std::span<const std::int64_t> iter) {
  if (!ref.is_indirect()) {
    // Row-major flattening of the index vector, one dim at a time.
    const ArrayDecl& array = program.array(ref.array);
    MLSC_DCHECK(ref.map.rank() == array.dims.size(),
                "index arity " << ref.map.rank() << " != rank "
                               << array.dims.size());
    std::uint64_t offset = 0;
    for (std::size_t d = 0; d < ref.map.rank(); ++d) {
      const std::int64_t index = ref.map.apply_dim(d, iter);
      MLSC_DCHECK(index >= 0 && index < array.dims[d],
                  "array " << array.name << " index " << index
                           << " out of bounds in dim " << d);
      offset = offset * static_cast<std::uint64_t>(array.dims[d]) +
               static_cast<std::uint64_t>(index);
    }
    return offset;
  }
  MLSC_DCHECK(ref.map.rank() == 1, "indirect references use a rank-1 map");
  const IndexTable& table = program.index_table(ref.index_table);
  const std::int64_t pos = ref.map.apply_dim(0, iter);
  MLSC_DCHECK(pos >= 0 &&
                  pos < static_cast<std::int64_t>(table.values.size()),
              "index table position out of range");
  const std::int64_t element = table.values[static_cast<std::size_t>(pos)];
  MLSC_DCHECK(element >= 0 &&
                  static_cast<std::uint64_t>(element) <
                      program.array(ref.array).num_elements(),
              "index table entry outside the target array");
  return static_cast<std::uint64_t>(element);
}

const LoopNest& Program::nest(NestId id) const {
  MLSC_CHECK(id < nests.size(), "nest id " << id << " out of range");
  return nests[id];
}

std::uint64_t Program::total_data_bytes() const {
  std::uint64_t total = 0;
  for (const auto& a : arrays) total += a.size_bytes();
  return total;
}

std::uint64_t Program::total_iterations() const {
  std::uint64_t total = 0;
  for (const auto& n : nests) total += n.space.size();
  return total;
}

void Program::validate() const {
  for (const auto& nest : nests) {
    MLSC_CHECK(!nest.space.empty(), "nest " << nest.name << " is empty");
    // Check every reference on every corner of the iteration space: for
    // affine maps over a box, extrema occur at corners, so in-bounds
    // corners imply in-bounds everywhere.
    const std::size_t depth = nest.depth();
    MLSC_CHECK(depth <= 20, "nest too deep for corner enumeration");
    for (std::uint64_t corner = 0; corner < (std::uint64_t{1} << depth);
         ++corner) {
      Iteration iter(depth);
      for (std::size_t k = 0; k < depth; ++k) {
        const auto& b = nest.space.loop(k);
        iter[k] = (corner >> k) & 1 ? b.upper : b.lower;
      }
      for (const auto& ref : nest.refs) {
        MLSC_CHECK(ref.array < arrays.size(),
                   "nest " << nest.name << " references unknown array");
        if (ref.is_indirect()) {
          MLSC_CHECK(ref.map.rank() == 1,
                     "indirect reference in " << nest.name
                                              << " must use a rank-1 map");
          const auto& table = index_table(ref.index_table);
          const std::int64_t pos = ref.map.apply_dim(0, iter);
          MLSC_CHECK(pos >= 0 && pos < static_cast<std::int64_t>(
                                           table.values.size()),
                     "nest " << nest.name
                             << " indexes past table " << table.name);
          continue;
        }
        const auto index = ref.map.apply(iter);
        MLSC_CHECK(arrays[ref.array].in_bounds(index),
                   "nest " << nest.name << " ref " << ref.map.to_string()
                           << " out of bounds of array "
                           << arrays[ref.array].name);
      }
    }
    // Every index table used by this nest must only hold valid elements
    // of the arrays accessed through it.
    for (const auto& ref : nest.refs) {
      if (!ref.is_indirect()) continue;
      const auto& table = index_table(ref.index_table);
      const std::uint64_t limit = arrays[ref.array].num_elements();
      for (std::int64_t v : table.values) {
        MLSC_CHECK(v >= 0 && static_cast<std::uint64_t>(v) < limit,
                   "table " << table.name << " entry " << v
                            << " outside array " << arrays[ref.array].name);
      }
    }
  }
}

}  // namespace mlsc::poly
