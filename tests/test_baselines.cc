#include "core/baselines.h"

#include <gtest/gtest.h>

#include "poly/dependence.h"
#include "support/check.h"
#include "support/units.h"

namespace mlsc::core {
namespace {

/// Column-major access over a row-major array: permutation fixes it.
poly::Program transposed_program() {
  poly::Program p;
  const auto a = p.add_array({"A", {64, 64}, 8 * 1024});
  poly::LoopNest nest;
  nest.name = "transposed";
  nest.space = poly::IterationSpace::from_extents({64, 64});
  nest.refs = {
      {a, poly::AccessMap::from_matrix({{0, 1}, {1, 0}}, {0, 0}), false},
  };
  p.add_nest(std::move(nest));
  return p;
}

TEST(Original, ContiguousEqualBlocks) {
  const auto p = transposed_program();
  const std::vector<poly::NestId> nests{0};
  const auto m = map_original(p, nests, 8);
  EXPECT_EQ(m.kind, MapperKind::kOriginal);
  m.validate_partition(p);
  ASSERT_EQ(m.num_clients(), 8u);
  for (std::size_t c = 0; c < 8; ++c) {
    ASSERT_EQ(m.client_work[c].size(), 1u);
    const auto& item = m.client_work[c][0];
    EXPECT_TRUE(item.order.is_identity());
    EXPECT_EQ(item.iterations, 64u * 64 / 8);
    EXPECT_EQ(item.ranges.front().begin, c * 512);
  }
}

TEST(Original, UnevenDivisionCoversEverything) {
  const auto p = transposed_program();
  const std::vector<poly::NestId> nests{0};
  const auto m = map_original(p, nests, 7);
  m.validate_partition(p);
  EXPECT_EQ(m.total_iterations(), 4096u);
}

TEST(LocalityModel, PermutationFixesTransposedAccess) {
  // The cache (8 chunks) is far smaller than one traversal column's
  // footprint (64 chunks), so the column-major identity walk thrashes
  // while the swapped (row-major) walk enjoys spatial hits.
  const auto p = transposed_program();
  const DataSpace space(p, 64 * 1024);
  const auto& nest = p.nest(0);
  const auto identity = poly::IterationOrder::identity(2);
  poly::IterationOrder swapped;
  swapped.permutation = {1, 0};
  swapped.tile_sizes = {1, 1};
  const double id_cost = chunk_locality_cost(p, space, nest, identity, 8);
  const double sw_cost = chunk_locality_cost(p, space, nest, swapped, 8);
  EXPECT_LT(sw_cost, id_cost);
}

TEST(IntraProcessor, ChoosesBetterThanIdentity) {
  const auto p = transposed_program();
  const DataSpace space(p, 64 * 1024);
  const auto order = choose_locality_order(p, space, p.nest(0),
                                           8 * 64 * 1024);  // 8 chunks
  const double chosen = chunk_locality_cost(p, space, p.nest(0), order, 8);
  const double identity = chunk_locality_cost(
      p, space, p.nest(0), poly::IterationOrder::identity(2), 8);
  EXPECT_LT(chosen, identity);
  EXPECT_FALSE(order.is_identity());
}

TEST(IntraProcessor, MappingPartitionsTransformedSpace) {
  const auto p = transposed_program();
  const DataSpace space(p, 64 * 1024);
  const std::vector<poly::NestId> nests{0};
  const auto m = map_intra_processor(p, space, nests, 4, 32 * kMiB);
  EXPECT_EQ(m.kind, MapperKind::kIntraProcessor);
  m.validate_partition(p);
}

TEST(IntraProcessor, LegalityBlocksReorderingDependentLoops) {
  // A[t][i] = A[t-1][i]: the t loop carries a flow dependence, so no
  // legal permutation may move it inward and tiling is off the table.
  poly::Program p;
  const auto a = p.add_array({"A", {8, 1024}, 8 * 1024});
  poly::LoopNest nest;
  nest.name = "timeloop";
  nest.space = poly::IterationSpace(std::vector<poly::LoopBounds>{
      {1, 7}, {0, 1023}});
  nest.refs = {
      {a, poly::AccessMap::identity(2, {0, 0}), /*is_write=*/true},
      {a, poly::AccessMap::identity(2, {-1, 0}), false},
  };
  p.add_nest(std::move(nest));
  const DataSpace space(p, 64 * 1024);
  const auto order = choose_locality_order(p, space, p.nest(0), 32 * kMiB);
  // Identity is the only legal permutation (t must stay outer), and the
  // negative-free... the dependence (1, 0) blocks tiling too? No: all
  // components are >= 0, so tiling is allowed; the permutation moving t
  // inward is not.
  EXPECT_EQ(order.permutation, (std::vector<std::size_t>{0, 1}));
}

TEST(IntraProcessor, NegativeDistanceBlocksTiling) {
  // A[t][i] reads A[t-1][i+1]: distance (1, -1) forbids rectangular
  // tiling (a tile could run a later t before an earlier one at the
  // crossing column).
  poly::Program p;
  const auto a = p.add_array({"A", {8, 64}, 8 * 1024});
  poly::LoopNest nest;
  nest.space = poly::IterationSpace(std::vector<poly::LoopBounds>{
      {1, 7}, {0, 62}});
  nest.refs = {
      {a, poly::AccessMap::identity(2, {0, 0}), /*is_write=*/true},
      {a, poly::AccessMap::identity(2, {-1, 1}), false},
  };
  p.add_nest(std::move(nest));
  const DataSpace space(p, 64 * 1024);
  const auto order = choose_locality_order(p, space, p.nest(0), 32 * kMiB);
  for (std::int64_t tile : order.tile_sizes) {
    EXPECT_EQ(tile, 1) << "tiling must be rejected as illegal";
  }
}

}  // namespace
}  // namespace mlsc::core
