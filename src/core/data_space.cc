#include "core/data_space.h"

#include "support/check.h"

namespace mlsc::core {

DataSpace::DataSpace(const poly::Program& program,
                     std::uint64_t chunk_size_bytes)
    : chunk_size_(chunk_size_bytes) {
  MLSC_CHECK(chunk_size_ > 0, "chunk size must be positive");
  arrays_.reserve(program.arrays.size());
  std::uint64_t next_chunk = 0;
  for (const auto& array : program.arrays) {
    ArrayInfo info;
    info.first_chunk = static_cast<ChunkId>(next_chunk);
    const std::uint64_t bytes = array.size_bytes();
    MLSC_CHECK(bytes > 0, "array " << array.name << " has zero size");
    const std::uint64_t chunks = (bytes + chunk_size_ - 1) / chunk_size_;
    // Checked before narrowing, so a single oversized array cannot wrap.
    MLSC_CHECK(chunks <= static_cast<std::uint64_t>(UINT32_MAX) - next_chunk,
               "data space exceeds 2^32 chunks; use a larger chunk size");
    info.num_chunks = static_cast<std::uint32_t>(chunks);
    info.element_size = array.element_size_bytes;
    next_chunk += chunks;
    arrays_.push_back(info);
  }
  num_chunks_ = static_cast<std::uint32_t>(next_chunk);
}

ChunkId DataSpace::array_first_chunk(poly::ArrayId array) const {
  MLSC_CHECK(array < arrays_.size(), "unknown array " << array);
  return arrays_[array].first_chunk;
}

std::uint32_t DataSpace::array_num_chunks(poly::ArrayId array) const {
  MLSC_CHECK(array < arrays_.size(), "unknown array " << array);
  return arrays_[array].num_chunks;
}

DataSpace::ChunkSpan DataSpace::element_chunks(
    poly::ArrayId array, std::uint64_t flat_element) const {
  MLSC_DCHECK(array < arrays_.size(), "unknown array " << array);
  const ArrayInfo& info = arrays_[array];
  const std::uint64_t byte_begin = flat_element * info.element_size;
  const std::uint64_t byte_last = byte_begin + info.element_size - 1;
  ChunkSpan span;
  span.first = info.first_chunk +
               static_cast<ChunkId>(byte_begin / chunk_size_);
  span.last =
      info.first_chunk + static_cast<ChunkId>(byte_last / chunk_size_);
  MLSC_DCHECK(span.last < info.first_chunk + info.num_chunks,
              "element beyond the array's chunk range");
  return span;
}

poly::ArrayId DataSpace::array_of_chunk(ChunkId chunk) const {
  for (poly::ArrayId a = 0; a < arrays_.size(); ++a) {
    if (chunk >= arrays_[a].first_chunk &&
        chunk < arrays_[a].first_chunk + arrays_[a].num_chunks) {
      return a;
    }
  }
  MLSC_CHECK(false, "chunk " << chunk << " outside the data space");
  return 0;  // unreachable
}

}  // namespace mlsc::core
