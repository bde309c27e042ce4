#include "poly/affine.h"

#include <gtest/gtest.h>

#include "support/check.h"

namespace mlsc::poly {
namespace {

TEST(AffineExpr, EvaluatesLinearForm) {
  const AffineExpr e({2, 0, -1}, 5);  // 2*i0 - i2 + 5
  const std::int64_t iter[] = {3, 100, 4};
  EXPECT_EQ(e.evaluate(iter), 2 * 3 - 4 + 5);
}

TEST(AffineExpr, Builders) {
  const auto c = AffineExpr::constant(3, 7);
  EXPECT_TRUE(c.is_constant());
  const std::int64_t iter[] = {1, 2, 3};
  EXPECT_EQ(c.evaluate(iter), 7);

  const auto it = AffineExpr::iterator(3, 1, -1);
  EXPECT_EQ(it.evaluate(iter), 1);
}

TEST(AffineExpr, Arithmetic) {
  const auto a = AffineExpr::iterator(2, 0, 3);
  const auto b = AffineExpr::iterator(2, 1, -1);
  const auto sum = a + b;
  const std::int64_t iter[] = {10, 20};
  EXPECT_EQ(sum.evaluate(iter), 10 + 3 + 20 - 1);
  const auto diff = a - b;
  EXPECT_EQ(diff.evaluate(iter), 10 + 3 - (20 - 1));
}

TEST(AffineExpr, ToString) {
  EXPECT_EQ(AffineExpr({1, 0}, 3).to_string(), "i0 + 3");
  EXPECT_EQ(AffineExpr({0, -2}, 0).to_string(), "-2*i1");
  EXPECT_EQ(AffineExpr({0, 0}, -4).to_string(), "-4");
}

TEST(AccessMap, PaperSection2Example) {
  // A[i1 + 3, i2 - 1]: Q is the identity, q = (3, -1)^T.
  const auto map = AccessMap::identity(2, {3, -1});
  const std::int64_t iter[] = {10, 20};
  EXPECT_EQ(map.apply(iter), (std::vector<std::int64_t>{13, 19}));
  EXPECT_EQ(map.apply_dim(0, iter), 13);
  EXPECT_EQ(map.apply_dim(1, iter), 19);
}

TEST(AccessMap, FromMatrix) {
  // Transposed access B[i1, i0].
  const auto map = AccessMap::from_matrix({{0, 1}, {1, 0}}, {0, 0});
  const std::int64_t iter[] = {3, 8};
  EXPECT_EQ(map.apply(iter), (std::vector<std::int64_t>{8, 3}));
}

TEST(AccessMap, SameLinearPart) {
  const auto a = AccessMap::identity(3, {0, 0});
  const auto b = AccessMap::identity(3, {1, -1});
  const auto c = AccessMap::from_matrix({{0, 0, 1}, {0, 1, 0}}, {0, 0});
  EXPECT_TRUE(a.same_linear_part(b));
  EXPECT_FALSE(a.same_linear_part(c));
}

TEST(AccessMap, RejectsMixedDepthRows) {
  std::vector<AffineExpr> rows;
  rows.push_back(AffineExpr::iterator(2, 0));
  rows.push_back(AffineExpr::iterator(3, 1));
  EXPECT_THROW(AccessMap{std::move(rows)}, Error);
}

}  // namespace
}  // namespace mlsc::poly
