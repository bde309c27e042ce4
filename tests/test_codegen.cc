#include "poly/codegen.h"

#include <gtest/gtest.h>

#include "support/check.h"
#include "support/rng.h"

namespace mlsc::poly {
namespace {

TEST(Codegen, FullSpaceIsOneBox) {
  const auto space = IterationSpace::from_extents({4, 5});
  const auto boxes = ranges_to_boxes(space, {{0, 20}});
  ASSERT_EQ(boxes.size(), 1u);
  EXPECT_EQ(boxes[0][0], (LoopBounds{0, 3}));
  EXPECT_EQ(boxes[0][1], (LoopBounds{0, 4}));
}

TEST(Codegen, PartialRowSplits) {
  const auto space = IterationSpace::from_extents({3, 4});
  // Ranks 2..9: tail of row 0, all of row 1, head of row 2.
  const auto boxes = ranges_to_boxes(space, {{2, 10}});
  EXPECT_EQ(boxes_size(boxes), 8u);
  EXPECT_GE(boxes.size(), 2u);
  EXPECT_LE(boxes.size(), 3u);
}

TEST(Codegen, MultipleRangesStayDisjoint) {
  const auto space = IterationSpace::from_extents({4, 4});
  const auto boxes = ranges_to_boxes(space, {{1, 3}, {9, 14}});
  EXPECT_EQ(boxes_size(boxes), 7u);
}

TEST(Codegen, RangeBeyondSpaceThrows) {
  const auto space = IterationSpace::from_extents({2, 2});
  EXPECT_THROW(ranges_to_boxes(space, {{0, 5}}), mlsc::Error);
}

/// Property: boxes partition the range exactly — same iterations, no
/// duplicates — for random range sets.
TEST(CodegenProperty, BoxesPartitionRanges) {
  mlsc::Rng rng(11);
  const IterationSpace space({{1, 6}, {0, 4}, {3, 7}});
  for (int trial = 0; trial < 40; ++trial) {
    std::vector<LinearRange> ranges;
    std::vector<bool> member(space.size(), false);
    std::uint64_t pos = rng.next_below(4);
    while (pos < space.size()) {
      const std::uint64_t len =
          std::min<std::uint64_t>(1 + rng.next_below(17), space.size() - pos);
      ranges.push_back({pos, pos + len});
      for (std::uint64_t r = pos; r < pos + len; ++r) member[r] = true;
      pos += len + 1 + rng.next_below(9);
    }
    const auto boxes = ranges_to_boxes(space, ranges);
    std::vector<int> seen(space.size(), 0);
    for (const auto& box : boxes) {
      IterationSpace box_space(box);
      for (std::uint64_t r = 0; r < box_space.size(); ++r) {
        ++seen[space.linearize(box_space.delinearize(r))];
      }
    }
    for (std::uint64_t r = 0; r < space.size(); ++r) {
      EXPECT_EQ(seen[r], member[r] ? 1 : 0) << "rank " << r;
    }
  }
}

TEST(Codegen, EmitRangeLoopsProducesSource) {
  const auto space = IterationSpace::from_extents({2, 3});
  const auto src = emit_range_loops(space, {{0, 6}}, "visit(i0, i1);");
  EXPECT_NE(src.find("for (long i0 = 0; i0 <= 1; ++i0)"), std::string::npos);
  EXPECT_NE(src.find("visit(i0, i1);"), std::string::npos);
}

TEST(Codegen, EmitNestSourceListsRefs) {
  Program p;
  const auto a = p.add_array({"A", {8, 8}, 8});
  LoopNest nest;
  nest.name = "demo";
  nest.space = IterationSpace::from_extents({8, 8});
  nest.refs = {{a, AccessMap::identity(2, {0, 0}), true}};
  p.add_nest(std::move(nest));
  const auto src = emit_nest_source(p, p.nest(0));
  EXPECT_NE(src.find("// nest demo"), std::string::npos);
  EXPECT_NE(src.find("write A"), std::string::npos);
}

}  // namespace
}  // namespace mlsc::poly
