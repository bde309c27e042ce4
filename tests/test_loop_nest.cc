#include "poly/loop_nest.h"

#include <gtest/gtest.h>

#include <random>

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

/// The reference verdict: every check of Program::validate run on every
/// corner point of each nest's box (2^depth of them), as the check was
/// first written.  True when the program passes.
bool corner_accepts(const Program& p) {
  for (const LoopNest& nest : p.nests) {
    if (nest.space.empty() || nest.depth() > 20) return false;
    const std::size_t depth = nest.depth();
    for (std::uint64_t corner = 0; corner < (std::uint64_t{1} << depth);
         ++corner) {
      Iteration iter(depth);
      for (std::size_t k = 0; k < depth; ++k) {
        iter[k] = (corner >> k) & 1 ? nest.space.loop(k).upper
                                    : nest.space.loop(k).lower;
      }
      for (const ArrayRef& ref : nest.refs) {
        if (ref.array >= p.arrays.size()) return false;
        if (ref.is_indirect()) {
          if (ref.map.rank() != 1) return false;
          if (ref.index_table < 0 ||
              static_cast<std::size_t>(ref.index_table) >=
                  p.index_tables.size()) {
            return false;
          }
          const std::int64_t pos = ref.map.apply_dim(0, iter);
          if (pos < 0 ||
              pos >= static_cast<std::int64_t>(
                         p.index_tables[ref.index_table].values.size())) {
            return false;
          }
          continue;
        }
        if (!p.arrays[ref.array].in_bounds(ref.map.apply(iter))) return false;
      }
    }
    for (const ArrayRef& ref : nest.refs) {
      if (!ref.is_indirect()) continue;
      const std::uint64_t limit = p.arrays[ref.array].num_elements();
      for (const std::int64_t v : p.index_tables[ref.index_table].values) {
        if (v < 0 || static_cast<std::uint64_t>(v) >= limit) return false;
      }
    }
  }
  return true;
}

TEST(Program, ValidateMatchesCornerEnumeration) {
  // Random programs: negative, zero and constant coefficients, loops
  // with negative bounds and empty ones, rank mismatches, unknown arrays
  // and tables, indirect references through tables with entries outside
  // their target.  validate() must accept exactly what the corner
  // enumeration accepts.
  std::mt19937 rng(2026);
  auto uniform = [&](std::int64_t lo, std::int64_t hi) {
    return std::uniform_int_distribution<std::int64_t>(lo, hi)(rng);
  };
  std::size_t accepted = 0;
  std::size_t rejected = 0;
  for (int trial = 0; trial < 8000; ++trial) {
    Program p;
    const std::int64_t num_arrays = uniform(1, 3);
    for (std::int64_t a = 0; a < num_arrays; ++a) {
      std::vector<std::int64_t> dims(static_cast<std::size_t>(uniform(1, 3)));
      for (std::int64_t& d : dims) d = uniform(1, 16);
      p.add_array({"A" + std::to_string(a), dims, 8});
    }
    const std::int64_t num_tables = uniform(0, 2);
    for (std::int64_t t = 0; t < num_tables; ++t) {
      std::vector<std::int64_t> values(static_cast<std::size_t>(uniform(1, 8)));
      for (std::int64_t& v : values) v = uniform(0, 3) - (uniform(0, 19) == 0);
      p.add_index_table({"T" + std::to_string(t), values});
    }
    const std::int64_t num_nests = uniform(1, 2);
    for (std::int64_t n = 0; n < num_nests; ++n) {
      LoopNest nest;
      nest.name = "n" + std::to_string(n);
      const auto depth = static_cast<std::size_t>(uniform(1, 3));
      std::vector<LoopBounds> bounds(depth);
      for (LoopBounds& b : bounds) {
        b.lower = uniform(-2, 3);
        b.upper = b.lower + uniform(uniform(0, 19) == 0 ? -1 : 0, 3);
      }
      nest.space = IterationSpace(bounds);
      const std::int64_t num_refs = uniform(1, 3);
      for (std::int64_t r = 0; r < num_refs; ++r) {
        ArrayRef ref;
        ref.array = static_cast<ArrayId>(
            uniform(0, num_arrays - (uniform(0, 14) != 0)));
        std::size_t rank = 0;
        if (uniform(0, 3) == 0) {
          ref.index_table = static_cast<IndexTableId>(uniform(
              0, std::max<std::int64_t>(0, num_tables - (uniform(0, 9) != 0))));
          rank = uniform(0, 9) == 0 ? 2 : 1;
        } else {
          const std::size_t dims =
              p.arrays[std::min<std::size_t>(ref.array, p.arrays.size() - 1)]
                  .dims.size();
          rank = uniform(0, 9) == 0 ? dims + 1 : dims;
          if (uniform(0, 9) == 0 && dims > 1) rank = dims - 1;
        }
        // Each constant lands the expression's range within one step of
        // its target's bounds, so both verdicts turn on the edge cases.
        std::vector<AffineExpr> exprs;
        const bool constant = uniform(0, 5) == 0;
        for (std::size_t d = 0; d < rank; ++d) {
          std::int64_t limit = 4;
          if (ref.is_indirect() &&
              static_cast<std::size_t>(ref.index_table) <
                  p.index_tables.size()) {
            limit = static_cast<std::int64_t>(
                p.index_tables[ref.index_table].values.size());
          } else if (!ref.is_indirect() && ref.array < p.arrays.size() &&
                     d < p.arrays[ref.array].dims.size()) {
            limit = p.arrays[ref.array].dims[d];
          }
          std::vector<std::int64_t> coeffs(depth);
          std::int64_t lo = 0;
          std::int64_t hi = 0;
          for (std::size_t k = 0; k < depth; ++k) {
            coeffs[k] = constant ? 0 : uniform(-2, 2);
            lo += std::min(coeffs[k] * bounds[k].lower,
                           coeffs[k] * bounds[k].upper);
            hi += std::max(coeffs[k] * bounds[k].lower,
                           coeffs[k] * bounds[k].upper);
          }
          exprs.emplace_back(coeffs,
                             uniform(-lo - 1, std::max(-lo, limit - hi)));
        }
        ref.map = AccessMap(exprs);
        nest.refs.push_back(ref);
      }
      p.add_nest(std::move(nest));
    }

    const bool expected = corner_accepts(p);
    bool actual = true;
    try {
      p.validate();
    } catch (const mlsc::Error&) {
      actual = false;
    }
    ASSERT_EQ(actual, expected) << "trial " << trial;
    ++(expected ? accepted : rejected);
  }
  // Both verdicts are common, so the comparison bites both ways.
  EXPECT_GT(accepted, 500u);
  EXPECT_GT(rejected, 500u);
}

}  // namespace
}  // namespace mlsc::poly
