#include "poly/dependence.h"

#include <gtest/gtest.h>

namespace mlsc::poly {
namespace {

Program stencil_program() {
  // for i = 1..9: A[i] = A[i-1] + B[i]
  Program p;
  const auto a = p.add_array({"A", {16}, 8});
  const auto b = p.add_array({"B", {16}, 8});
  LoopNest nest;
  nest.name = "recurrence";
  nest.space = IterationSpace({{1, 9}});
  nest.refs = {
      {a, AccessMap::identity(1, {0}), /*is_write=*/true},
      {a, AccessMap::identity(1, {-1}), false},
      {b, AccessMap::identity(1, {0}), false},
  };
  p.add_nest(std::move(nest));
  return p;
}

TEST(Dependence, FlowDependenceDistanceOne) {
  const auto p = stencil_program();
  const auto deps = find_dependences(p.nest(0));
  // write A[i] -> read A[i-1] at distance +1 (and the anti direction).
  bool found_flow = false;
  for (const auto& d : deps) {
    ASSERT_EQ(d.distance.size(), 1u);
    if (d.distance[0].has_value() && *d.distance[0] == 1) found_flow = true;
  }
  EXPECT_TRUE(found_flow);
  EXPECT_FALSE(deps.empty());
}

TEST(Dependence, CarriedLevel) {
  Dependence d;
  d.distance = {std::optional<std::int64_t>{0},
                std::optional<std::int64_t>{2},
                std::optional<std::int64_t>{0}};
  EXPECT_EQ(d.carried_level(), std::optional<std::size_t>{1});
  d.distance = {std::optional<std::int64_t>{0},
                std::optional<std::int64_t>{0},
                std::optional<std::int64_t>{0}};
  EXPECT_FALSE(d.carried_level().has_value());
  d.distance = {std::nullopt, std::optional<std::int64_t>{0}};
  EXPECT_EQ(d.carried_level(), std::optional<std::size_t>{0});
}

TEST(Dependence, IndependentReferencesProduceNoDeps) {
  Program p;
  const auto a = p.add_array({"A", {10, 10}, 8});
  const auto b = p.add_array({"B", {10, 10}, 8});
  LoopNest nest;
  nest.space = IterationSpace::from_extents({10, 10});
  nest.refs = {
      {a, AccessMap::identity(2, {0, 0}), /*is_write=*/true},
      {b, AccessMap::identity(2, {0, 0}), false},
  };
  p.add_nest(std::move(nest));
  EXPECT_TRUE(find_dependences(p.nest(0)).empty());
}

TEST(Dependence, GcdTestDisprovesStridedPair) {
  // write A[2*i], read A[2*i+1]: even vs odd elements never meet.
  Program p;
  const auto a = p.add_array({"A", {64}, 8});
  LoopNest nest;
  nest.space = IterationSpace({{0, 20}});
  nest.refs = {
      {a, AccessMap::from_matrix({{2}}, {0}), /*is_write=*/true},
      {a, AccessMap::from_matrix({{2}}, {1}), false},
  };
  p.add_nest(std::move(nest));
  EXPECT_TRUE(find_dependences(p.nest(0)).empty());
}

TEST(Dependence, ConstantSubscriptMismatchDisproves) {
  Program p;
  const auto a = p.add_array({"A", {10, 10}, 8});
  LoopNest nest;
  nest.space = IterationSpace::from_extents({10});
  // A[3, i] written, A[4, i] read: first subscript can never match.
  nest.refs = {
      {a, AccessMap::from_matrix({{0}, {1}}, {3, 0}), /*is_write=*/true},
      {a, AccessMap::from_matrix({{0}, {1}}, {4, 0}), false},
  };
  p.add_nest(std::move(nest));
  EXPECT_TRUE(find_dependences(p.nest(0)).empty());
}

TEST(Dependence, ToStringRendersStars) {
  Dependence d;
  d.src_ref = 0;
  d.dst_ref = 2;
  d.distance = {std::optional<std::int64_t>{1}, std::nullopt};
  EXPECT_EQ(d.to_string(), "ref0 -> ref2 (1, *)");
}

}  // namespace
}  // namespace mlsc::poly
