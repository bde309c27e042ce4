#include "core/data_space.h"

#include <gtest/gtest.h>

#include "support/check.h"

namespace mlsc::core {
namespace {

poly::Program two_array_program() {
  // Fig. 4: two disk-resident arrays partitioned separately; numbering
  // continues from the last chunk of one to the first of the next.
  poly::Program p;
  p.add_array({"A", {6}, 64});   // 384 B -> 6 chunks of 64
  p.add_array({"B", {3, 2}, 64});  // 384 B -> 6 chunks
  return p;
}

TEST(DataSpace, GlobalNumberingAcrossArrays) {
  const auto p = two_array_program();
  const DataSpace space(p, 64);
  EXPECT_EQ(space.num_chunks(), 12u);
  EXPECT_EQ(space.array_first_chunk(0), 0u);
  EXPECT_EQ(space.array_num_chunks(0), 6u);
  EXPECT_EQ(space.array_first_chunk(1), 6u);
  EXPECT_EQ(space.array_num_chunks(1), 6u);
}

TEST(DataSpace, NoChunkSharedAcrossArrays) {
  // A is 100 bytes (not a chunk multiple): it still occupies its own
  // 2 chunks and B starts on a fresh chunk.
  poly::Program p;
  p.add_array({"A", {25}, 4});  // 100 B
  p.add_array({"B", {10}, 8});  // 80 B
  const DataSpace space(p, 64);
  EXPECT_EQ(space.array_num_chunks(0), 2u);
  EXPECT_EQ(space.array_first_chunk(1), 2u);
}

TEST(DataSpace, ElementChunksWithinOneChunk) {
  const auto p = two_array_program();
  const DataSpace space(p, 64);
  const auto span = space.element_chunks(0, 2);  // bytes [128, 192)
  EXPECT_EQ(span.first, 2u);
  EXPECT_EQ(span.last, 2u);
}

TEST(DataSpace, ElementStraddlingChunks) {
  poly::Program p;
  p.add_array({"A", {4}, 96});  // each element spans 1.5 chunks of 64
  const DataSpace space(p, 64);
  const auto span0 = space.element_chunks(0, 0);  // bytes [0, 96)
  EXPECT_EQ(span0.first, 0u);
  EXPECT_EQ(span0.last, 1u);
  const auto span1 = space.element_chunks(0, 1);  // bytes [96, 192)
  EXPECT_EQ(span1.first, 1u);
  EXPECT_EQ(span1.last, 2u);
}

TEST(DataSpace, SecondArrayElementsOffset) {
  const auto p = two_array_program();
  const DataSpace space(p, 64);
  const auto span = space.element_chunks(1, 0);
  EXPECT_EQ(span.first, 6u);
  EXPECT_EQ(span.last, 6u);
}

TEST(DataSpace, ReverseLookup) {
  const auto p = two_array_program();
  const DataSpace space(p, 64);
  EXPECT_EQ(space.array_of_chunk(0), 0u);
  EXPECT_EQ(space.array_of_chunk(5), 0u);
  EXPECT_EQ(space.array_of_chunk(6), 1u);
  EXPECT_EQ(space.array_of_chunk(11), 1u);
  EXPECT_THROW(space.array_of_chunk(12), mlsc::Error);
}

TEST(DataSpace, ChunkSizeSweepChangesGranularity) {
  // Fig. 14's knob: halving the chunk size doubles the chunk count.
  const auto p = two_array_program();
  EXPECT_EQ(DataSpace(p, 64).num_chunks(), 12u);
  EXPECT_EQ(DataSpace(p, 32).num_chunks(), 24u);
  EXPECT_EQ(DataSpace(p, 128).num_chunks(), 6u);
}

TEST(DataSpace, RejectsMoreThan2To32Chunks) {
  // One array of exactly 2^32 chunks: its count must not wrap to 0.
  poly::Program one;
  one.add_array({"A", {std::int64_t{1} << 32}, 64});
  EXPECT_THROW(DataSpace(one, 64), mlsc::Error);
  // Two arrays that fit apart but not together.
  poly::Program two;
  two.add_array({"A", {std::int64_t{1} << 31}, 64});
  two.add_array({"B", {std::int64_t{1} << 31}, 64});
  EXPECT_THROW(DataSpace(two, 64), mlsc::Error);
}

}  // namespace
}  // namespace mlsc::core
