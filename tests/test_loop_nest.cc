#include "poly/loop_nest.h"

#include <gtest/gtest.h>

#include "support/check.h"

namespace mlsc::poly {
namespace {

TEST(ArrayDecl, SizesAndFlatten) {
  Program p;
  const ArrayRef ref{p.add_array({"A", {4, 8}, 1024}),
                     AccessMap::identity(2, {0, 0})};
  const ArrayDecl& a = p.array(ref.array);
  EXPECT_EQ(a.num_elements(), 32u);
  EXPECT_EQ(a.size_bytes(), 32u * 1024u);
  // resolve_element flattens row-major.
  EXPECT_EQ(resolve_element(p, ref, Iteration{0, 0}), 0u);
  EXPECT_EQ(resolve_element(p, ref, Iteration{1, 0}), 8u);
  EXPECT_EQ(resolve_element(p, ref, Iteration{3, 7}), 31u);
}

TEST(ArrayDecl, InBounds) {
  const ArrayDecl a{"A", {4, 8}, 8};
  EXPECT_TRUE(a.in_bounds(std::vector<std::int64_t>{0, 0}));
  EXPECT_TRUE(a.in_bounds(std::vector<std::int64_t>{3, 7}));
  EXPECT_FALSE(a.in_bounds(std::vector<std::int64_t>{4, 0}));
  EXPECT_FALSE(a.in_bounds(std::vector<std::int64_t>{0, -1}));
  EXPECT_FALSE(a.in_bounds(std::vector<std::int64_t>{0}));
}

TEST(Program, AddAndQuery) {
  Program p;
  const auto a = p.add_array({"A", {16}, 64});
  const auto b = p.add_array({"B", {16, 16}, 64});
  EXPECT_EQ(p.array(a).name, "A");
  EXPECT_EQ(p.array(b).name, "B");
  EXPECT_EQ(p.total_data_bytes(), 16u * 64 + 256u * 64);
  EXPECT_THROW(p.array(7), mlsc::Error);
  EXPECT_THROW(p.nest(0), mlsc::Error);
}

TEST(Program, ValidatePassesInBoundsNest) {
  Program p;
  const auto a = p.add_array({"A", {10, 10}, 8});
  LoopNest nest;
  nest.name = "ok";
  nest.space = IterationSpace({{0, 8}, {0, 8}});
  nest.refs = {{a, AccessMap::identity(2, {1, 1}), false}};
  p.add_nest(std::move(nest));
  EXPECT_NO_THROW(p.validate());
  EXPECT_EQ(p.total_iterations(), 81u);
}

TEST(Program, ValidateCatchesOutOfBoundsCorner) {
  Program p;
  const auto a = p.add_array({"A", {10}, 8});
  LoopNest nest;
  nest.space = IterationSpace({{0, 9}});
  nest.refs = {{a, AccessMap::identity(1, {1}), false}};  // A[i+1]: i=9 OOB
  p.add_nest(std::move(nest));
  EXPECT_THROW(p.validate(), mlsc::Error);
}

TEST(Program, ValidateCatchesUnknownArray) {
  Program p;
  LoopNest nest;
  nest.space = IterationSpace({{0, 3}});
  nest.refs = {{7, AccessMap::identity(1, {0}), false}};
  p.add_nest(std::move(nest));
  EXPECT_THROW(p.validate(), mlsc::Error);
}

}  // namespace
}  // namespace mlsc::poly
