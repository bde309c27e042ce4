#include "core/load_balance.h"

#include <gtest/gtest.h>

#include <cmath>

#include "support/check.h"
#include "support/rng.h"

namespace mlsc::core {
namespace {

IterationChunk make_chunk(std::uint64_t begin, std::uint64_t end,
                          std::vector<std::uint32_t> bits) {
  IterationChunk c;
  c.nest = 0;
  c.tag = ChunkTag::from_bits(std::move(bits));
  c.ranges = {poly::LinearRange{begin, end}};
  c.iterations = end - begin;
  return c;
}

TEST(BalanceLimits, WindowAroundIdeal) {
  const auto limits = balance_limits(1000, 4, 0.10);
  EXPECT_EQ(limits.lower, 225u);  // 250 * 0.9
  EXPECT_EQ(limits.upper, 275u);  // 250 * 1.1
}

TEST(BalanceLimits, ThresholdAboveOneClampsLowerBoundAtZero) {
  // ideal * (1 - 1.5) is negative: the lower bound saturates at 0
  // instead of converting an out-of-range double.
  const auto limits = balance_limits(1000, 4, 1.5);
  EXPECT_EQ(limits.lower, 0u);
  EXPECT_EQ(limits.upper, 625u);  // 250 * 2.5
}

TEST(BalanceLimits, RejectsNegativeAndNanThresholds) {
  EXPECT_THROW(balance_limits(1000, 4, -0.1), mlsc::Error);
  EXPECT_THROW(balance_limits(1000, 4, std::nan("")), mlsc::Error);
}

TEST(BalanceLimits, ZeroThresholdStillAdmitsPerfectPartition) {
  const auto limits = balance_limits(10, 3, 0.0);
  EXPECT_LE(limits.lower, 3u);   // floor(10/3)
  EXPECT_GE(limits.upper, 4u);   // ceil(10/3)
}

TEST(Balance, MovesChunkFromLargeToSmall) {
  std::vector<IterationChunk> chunks{
      make_chunk(0, 50, {1}),
      make_chunk(50, 100, {1, 2}),
      make_chunk(100, 110, {3}),
  };
  std::vector<Cluster> clusters;
  clusters.push_back(Cluster::singleton(0, chunks[0]));
  clusters.back().add_member(1, chunks[1]);  // 100 iterations
  clusters.push_back(Cluster::singleton(2, chunks[2]));  // 10 iterations
  EXPECT_FALSE(is_balanced(clusters, {0.10}));

  const auto moves = balance_clusters(clusters, chunks, {0.10});
  EXPECT_GE(moves, 1u);
  EXPECT_TRUE(is_balanced(clusters, {0.10}));
}

TEST(Balance, SplitsWhenNoWholeChunkFits) {
  // One giant chunk vs one tiny: only a split can balance.
  std::vector<IterationChunk> chunks{
      make_chunk(0, 99, {1}),
      make_chunk(99, 100, {2}),
  };
  std::vector<Cluster> clusters;
  clusters.push_back(Cluster::singleton(0, chunks[0]));
  clusters.push_back(Cluster::singleton(1, chunks[1]));
  balance_clusters(clusters, chunks, {0.10});
  EXPECT_TRUE(is_balanced(clusters, {0.10}));
  EXPECT_GT(chunks.size(), 2u);  // a split happened
  // No iterations lost.
  std::uint64_t total = 0;
  for (const auto& c : clusters) total += c.iterations;
  EXPECT_EQ(total, 100u);
}

TEST(Balance, PrefersHighAffinityChunk) {
  // Donor has two equal-size chunks; recipient's tag matches chunk B.
  std::vector<IterationChunk> chunks{
      make_chunk(0, 40, {1}),        // A: no affinity with recipient
      make_chunk(40, 80, {7, 8}),    // B: shares {7,8} with recipient
      make_chunk(80, 90, {7, 8, 9}),
  };
  std::vector<Cluster> clusters;
  clusters.push_back(Cluster::singleton(0, chunks[0]));
  clusters.back().add_member(1, chunks[1]);
  clusters.push_back(Cluster::singleton(2, chunks[2]));
  balance_clusters(clusters, chunks, {0.10});
  // Chunk 1 (B) should have moved to the recipient, not chunk 0.
  const auto& recipient = clusters[1];
  EXPECT_NE(std::find(recipient.members.begin(), recipient.members.end(), 1u),
            recipient.members.end());
}

TEST(Balance, ExplicitLimitsOverrideLocalWindow) {
  std::vector<IterationChunk> chunks{
      make_chunk(0, 30, {1}),
      make_chunk(30, 60, {2}),
  };
  std::vector<Cluster> clusters;
  clusters.push_back(Cluster::singleton(0, chunks[0]));
  clusters.back().add_member(1, chunks[1]);  // 60
  clusters.push_back(Cluster{});             // empty cluster
  clusters.back().members = {};
  // Wide explicit limits accept the lopsided state as-is.
  const BalanceLimits wide{0, 100};
  EXPECT_EQ(balance_clusters(clusters, chunks, {0.10}, &wide), 0u);
}

/// Property: balancing random cluster sets always terminates inside the
/// window and conserves both iterations and chunk coverage.
TEST(BalanceProperty, RandomSetsConvergeAndConserve) {
  mlsc::Rng rng(17);
  for (int trial = 0; trial < 25; ++trial) {
    std::vector<IterationChunk> chunks;
    std::uint64_t pos = 0;
    const std::size_t num_chunks = 5 + rng.next_below(30);
    for (std::size_t i = 0; i < num_chunks; ++i) {
      const std::uint64_t len = 1 + rng.next_below(60);
      std::vector<std::uint32_t> bits;
      for (int b = 0; b < 4; ++b) {
        bits.push_back(static_cast<std::uint32_t>(rng.next_below(20)));
      }
      chunks.push_back(make_chunk(pos, pos + len, std::move(bits)));
      pos += len;
    }
    const std::uint64_t total = pos;

    const std::size_t num_clusters = 2 + rng.next_below(4);
    std::vector<Cluster> clusters(num_clusters);
    for (std::uint32_t i = 0; i < chunks.size(); ++i) {
      clusters[rng.next_below(num_clusters)].add_member(i, chunks[i]);
    }
    // Give every empty cluster one split share by pre-balancing by hand:
    // skip trials with empty clusters whose total is too small.
    bool any_empty = false;
    for (const auto& c : clusters) any_empty |= c.members.empty();
    if (any_empty) continue;

    balance_clusters(clusters, chunks, {0.10});
    EXPECT_TRUE(is_balanced(clusters, {0.10}));

    std::uint64_t covered = 0;
    std::vector<poly::LinearRange> all_ranges;
    for (const auto& c : clusters) {
      covered += c.iterations;
      for (std::uint32_t m : c.members) {
        all_ranges.insert(all_ranges.end(), chunks[m].ranges.begin(),
                          chunks[m].ranges.end());
      }
    }
    EXPECT_EQ(covered, total);
    const auto merged = poly::normalize_ranges(std::move(all_ranges));
    EXPECT_EQ(poly::total_range_size(merged), total)
        << "ranges overlap or were lost";
  }
}

/// Brute-force balance reference, independent of the production scoring:
/// the same donor / recipient / move rules as balance_clusters, but every
/// move rescans every donor member with a fresh count_at dot.
struct ReferenceBalance {
  std::size_t upper_moves = 0;
  std::size_t lower_moves = 0;
  std::size_t splits = 0;
};

std::uint64_t brute_dot(const ClusterTag& tag, const ChunkTag& chunk) {
  std::uint64_t total = 0;
  for (std::uint32_t b : chunk.bits()) total += tag.count_at(b);
  return total;
}

void reference_move(std::vector<Cluster>& clusters,
                    std::vector<IterationChunk>& chunks, std::size_t donor,
                    std::size_t recipient, std::uint64_t move_max,
                    ReferenceBalance& run) {
  constexpr std::uint32_t kNone = UINT32_MAX;
  std::uint32_t best_fit = kNone;
  std::uint32_t best_any = kNone;
  std::uint64_t fit_dot = 0;
  std::uint64_t any_dot = 0;
  for (std::uint32_t member : clusters[donor].members) {
    const std::uint64_t d =
        brute_dot(clusters[recipient].tag, chunks[member].tag);
    const std::uint64_t size = chunks[member].iterations;
    if (size <= move_max &&
        (best_fit == kNone || d > fit_dot ||
         (d == fit_dot && size > chunks[best_fit].iterations))) {
      best_fit = member;
      fit_dot = d;
    }
    if (best_any == kNone || d > any_dot) {
      best_any = member;
      any_dot = d;
    }
  }
  if (best_fit != kNone) {
    clusters[donor].remove_member(best_fit, chunks[best_fit]);
    clusters[recipient].add_member(best_fit, chunks[best_fit]);
    return;
  }
  auto [head, tail] = split_chunk(chunks[best_any], move_max);
  clusters[donor].remove_member(best_any, chunks[best_any]);
  chunks[best_any] = std::move(head);
  chunks.push_back(std::move(tail));
  const auto tail_index = static_cast<std::uint32_t>(chunks.size() - 1);
  clusters[recipient].add_member(best_any, chunks[best_any]);
  clusters[donor].add_member(tail_index, chunks[tail_index]);
  ++run.splits;
}

ReferenceBalance reference_balance(std::vector<Cluster>& clusters,
                                   std::vector<IterationChunk>& chunks,
                                   const BalanceLimits& limits) {
  ReferenceBalance run;
  const std::size_t k = clusters.size();
  for (;;) {
    std::size_t donor = k;
    for (std::size_t i = 0; i < k; ++i) {
      if (clusters[i].iterations > limits.upper &&
          (donor == k || clusters[i].iterations > clusters[donor].iterations)) {
        donor = i;
      }
    }
    if (donor == k) break;
    std::size_t recipient = donor == 0 ? 1 : 0;
    for (std::size_t i = 0; i < k; ++i) {
      if (i != donor &&
          clusters[i].iterations < clusters[recipient].iterations) {
        recipient = i;
      }
    }
    const std::uint64_t move_max =
        std::min(clusters[donor].iterations - limits.lower,
                 limits.upper - clusters[recipient].iterations);
    reference_move(clusters, chunks, donor, recipient, move_max, run);
    ++run.upper_moves;
  }
  for (;;) {
    std::size_t recipient = k;
    for (std::size_t i = 0; i < k; ++i) {
      if (clusters[i].iterations < limits.lower &&
          (recipient == k ||
           clusters[i].iterations < clusters[recipient].iterations)) {
        recipient = i;
      }
    }
    if (recipient == k) break;
    std::size_t donor = recipient == 0 ? 1 : 0;
    for (std::size_t i = 0; i < k; ++i) {
      if (i != recipient &&
          clusters[i].iterations > clusters[donor].iterations) {
        donor = i;
      }
    }
    const std::uint64_t move_max =
        std::min(limits.lower - clusters[recipient].iterations,
                 clusters[donor].iterations - limits.lower);
    reference_move(clusters, chunks, donor, recipient, move_max, run);
    ++run.lower_moves;
  }
  return run;
}

/// balance_clusters must match the brute-force reference move for move:
/// same clusters in the same member order, same chunk table (splits
/// included), same move count — through both the upper and the lower
/// pull-up pass.
TEST(BalanceProperty, MatchesBruteForceReference) {
  mlsc::Rng rng(2010);
  ReferenceBalance seen;
  for (int trial = 0; trial < 60; ++trial) {
    std::vector<IterationChunk> chunks;
    std::uint64_t pos = 0;
    const std::size_t num_chunks = 20 + rng.next_below(120);
    for (std::size_t i = 0; i < num_chunks; ++i) {
      const std::uint64_t len = 1 + rng.next_below(60);
      std::vector<std::uint32_t> bits;
      const std::uint64_t width = 3 + rng.next_below(4);
      for (std::uint64_t b = 0; b < width; ++b) {
        bits.push_back(static_cast<std::uint32_t>(rng.next_below(40)));
      }
      chunks.push_back(make_chunk(pos, pos + len, std::move(bits)));
      pos += len;
    }
    // Skewed assignment: the first clusters start over-full, so the
    // upper pass runs long with repeated and changing recipients.
    const std::size_t k = 2 + rng.next_below(15);
    std::vector<Cluster> clusters(k);
    for (std::uint32_t i = 0; i < chunks.size(); ++i) {
      const std::size_t c =
          i < k ? i : rng.next_below(1 + rng.next_below(k));
      clusters[c].add_member(i, chunks[i]);
    }
    const double threshold = 0.05 * static_cast<double>(rng.next_below(3));
    const BalanceLimits limits = balance_limits(pos, k, threshold);

    auto want_clusters = clusters;
    auto want_chunks = chunks;
    const ReferenceBalance want =
        reference_balance(want_clusters, want_chunks, limits);
    seen.upper_moves += want.upper_moves;
    seen.lower_moves += want.lower_moves;
    seen.splits += want.splits;

    SCOPED_TRACE("trial " + std::to_string(trial));
    const BalanceLimits* explicit_limits = trial % 2 == 0 ? &limits : nullptr;
    const std::size_t moves =
        balance_clusters(clusters, chunks, {threshold}, explicit_limits);
    EXPECT_EQ(moves, want.upper_moves + want.lower_moves);
    ASSERT_EQ(clusters.size(), want_clusters.size());
    for (std::size_t c = 0; c < k; ++c) {
      EXPECT_EQ(clusters[c].members, want_clusters[c].members)
          << "cluster " << c;
      EXPECT_EQ(clusters[c].iterations, want_clusters[c].iterations);
    }
    ASSERT_EQ(chunks.size(), want_chunks.size());
    for (std::size_t i = 0; i < chunks.size(); ++i) {
      EXPECT_EQ(chunks[i].iterations, want_chunks[i].iterations);
      EXPECT_EQ(chunks[i].tag, want_chunks[i].tag);
      ASSERT_EQ(chunks[i].ranges.size(), want_chunks[i].ranges.size());
      for (std::size_t r = 0; r < chunks[i].ranges.size(); ++r) {
        EXPECT_EQ(chunks[i].ranges[r].begin, want_chunks[i].ranges[r].begin);
        EXPECT_EQ(chunks[i].ranges[r].end, want_chunks[i].ranges[r].end);
      }
    }
  }
  // The random sets must exercise both passes and the split path.
  EXPECT_GT(seen.upper_moves, 0u);
  EXPECT_GT(seen.lower_moves, 0u);
  EXPECT_GT(seen.splits, 0u);
}

}  // namespace
}  // namespace mlsc::core
