#include "core/clustering.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "obs/metrics.h"
#include "support/check.h"
#include "support/rng.h"
#include "support/thread_pool.h"

namespace mlsc::core {
namespace {

IterationChunk make_chunk(poly::NestId nest, std::uint64_t begin,
                          std::uint64_t end,
                          std::vector<std::uint32_t> bits) {
  IterationChunk c;
  c.nest = nest;
  c.tag = ChunkTag::from_bits(std::move(bits));
  c.ranges = {poly::LinearRange{begin, end}};
  c.iterations = end - begin;
  return c;
}

/// The paper's worked example (Fig. 6/8): 8 iteration chunks of d
/// iterations each; γ1..γ8 tags over 12 data chunks.  d = 8 here.
std::vector<IterationChunk> fig8_chunks() {
  const std::uint64_t d = 8;
  std::vector<std::vector<std::uint32_t>> tags = {
      {0, 2, 4},     // γ1  101010000000
      {0, 1, 3, 5},  // γ2  110101000000
      {0, 2, 4, 6},  // γ3  101010100000
      {0, 3, 5, 7},  // γ4  100101010000
      {0, 4, 6, 8},  // γ5  100010101000
      {0, 5, 7, 9},  // γ6  100001010100
      {0, 6, 8, 10},  // γ7 100000101010
      {0, 7, 9, 11},  // γ8 100000010101
  };
  std::vector<IterationChunk> chunks;
  for (std::size_t i = 0; i < tags.size(); ++i) {
    chunks.push_back(
        make_chunk(0, i * d, (i + 1) * d, std::move(tags[i])));
  }
  return chunks;
}

TEST(Cluster, SingletonAndAbsorb) {
  auto chunks = fig8_chunks();
  auto a = Cluster::singleton(0, chunks[0]);
  EXPECT_EQ(a.iterations, 8u);
  EXPECT_EQ(a.members, (std::vector<std::uint32_t>{0}));
  auto b = Cluster::singleton(2, chunks[2]);
  a.absorb(std::move(b));
  EXPECT_EQ(a.iterations, 16u);
  EXPECT_EQ(a.tag.count_at(0), 2u);
  EXPECT_EQ(a.tag.count_at(6), 1u);
}

TEST(Cluster, RemoveMember) {
  auto chunks = fig8_chunks();
  auto c = Cluster::singleton(0, chunks[0]);
  c.add_member(1, chunks[1]);
  c.remove_member(0, chunks[0]);
  EXPECT_EQ(c.members, (std::vector<std::uint32_t>{1}));
  EXPECT_EQ(c.iterations, 8u);
  EXPECT_THROW(c.remove_member(0, chunks[0]), mlsc::Error);
}

/// Level-1 clustering of the worked example: the paper's Fig. 9 groups
/// the odd chunks {γ1,γ3,γ5,γ7} on one I/O node and the even chunks
/// {γ2,γ4,γ6,γ8} on the other.
TEST(Clustering, PaperFig9FirstLevel) {
  auto chunks = fig8_chunks();
  std::vector<std::uint32_t> all{0, 1, 2, 3, 4, 5, 6, 7};
  auto clusters = make_singletons(all, chunks);
  cluster_to_count(clusters, 2, chunks);
  ASSERT_EQ(clusters.size(), 2u);

  std::set<std::uint32_t> a(clusters[0].members.begin(),
                            clusters[0].members.end());
  std::set<std::uint32_t> b(clusters[1].members.begin(),
                            clusters[1].members.end());
  const std::set<std::uint32_t> odd{0, 2, 4, 6};   // γ1 γ3 γ5 γ7
  const std::set<std::uint32_t> even{1, 3, 5, 7};  // γ2 γ4 γ6 γ8
  EXPECT_TRUE((a == odd && b == even) || (a == even && b == odd))
      << "clusters do not match the paper's Fig. 9 families";
}

/// Second level: each I/O cluster splits into the Fig. 9 client pairs.
TEST(Clustering, PaperFig9SecondLevel) {
  auto chunks = fig8_chunks();
  std::vector<std::uint32_t> odd{0, 2, 4, 6};
  auto clusters = make_singletons(odd, chunks);
  cluster_to_count(clusters, 2, chunks);
  ASSERT_EQ(clusters.size(), 2u);
  std::set<std::uint32_t> a(clusters[0].members.begin(),
                            clusters[0].members.end());
  const std::set<std::uint32_t> low{0, 2};   // γ1, γ3 -> one client
  const std::set<std::uint32_t> high{4, 6};  // γ5, γ7 -> the other
  EXPECT_TRUE(a == low || a == high);
}

TEST(Clustering, MergeReducesToTarget) {
  auto chunks = fig8_chunks();
  std::vector<std::uint32_t> all{0, 1, 2, 3, 4, 5, 6, 7};
  auto clusters = make_singletons(all, chunks);
  cluster_to_count(clusters, 3, chunks);
  EXPECT_EQ(clusters.size(), 3u);
  std::uint64_t total = 0;
  for (const auto& c : clusters) total += c.iterations;
  EXPECT_EQ(total, 64u);
}

TEST(Clustering, SplitsWhenTooFewClusters) {
  // One chunk, four clients: Fig. 5's "case when the current number of
  // clusters is less than the required number" — split continually.
  std::vector<IterationChunk> chunks{make_chunk(0, 0, 100, {1, 2})};
  std::vector<std::uint32_t> all{0};
  auto clusters = make_singletons(all, chunks);
  cluster_to_count(clusters, 4, chunks);
  EXPECT_EQ(clusters.size(), 4u);
  EXPECT_GT(chunks.size(), 1u);  // chunk table grew via splits
  std::uint64_t total = 0;
  for (const auto& c : clusters) {
    total += c.iterations;
    EXPECT_GE(c.iterations, 25u - 13u);  // roughly balanced halving
  }
  EXPECT_EQ(total, 100u);
}

TEST(Clustering, ZeroSharingMergesRankAdjacent) {
  // Four disjoint-tag chunks: the fallback should merge rank neighbours,
  // keeping the sequential order (disk-sequential) grouping.
  std::vector<IterationChunk> chunks{
      make_chunk(0, 0, 10, {0}),
      make_chunk(0, 10, 20, {1}),
      make_chunk(0, 20, 30, {2}),
      make_chunk(0, 30, 40, {3}),
  };
  std::vector<std::uint32_t> all{0, 1, 2, 3};
  auto clusters = make_singletons(all, chunks);
  cluster_to_count(clusters, 2, chunks);
  ASSERT_EQ(clusters.size(), 2u);
  for (auto& c : clusters) {
    std::sort(c.members.begin(), c.members.end());
  }
  const auto& a = clusters[0].members.front() == 0 ? clusters[0] : clusters[1];
  EXPECT_EQ(a.members, (std::vector<std::uint32_t>{0, 1}));
}

TEST(Clustering, TargetOneMergesEverything) {
  auto chunks = fig8_chunks();
  std::vector<std::uint32_t> all{0, 1, 2, 3};
  auto clusters = make_singletons(all, chunks);
  cluster_to_count(clusters, 1, chunks);
  ASSERT_EQ(clusters.size(), 1u);
  EXPECT_EQ(clusters[0].members.size(), 4u);
}

TEST(Clustering, RejectsEmptyInput) {
  std::vector<IterationChunk> chunks;
  std::vector<Cluster> clusters;
  EXPECT_THROW(cluster_to_count(clusters, 1, chunks), mlsc::Error);
}

/// Random chunks for the greedy oracle, mixing the shapes that stress
/// the best-partner bookkeeping:
///   - a hub position held by most chunks, so most pairs share data and
///     every merge touches most partners;
///   - tags drawn from a small universe, with repeats, so equal scores
///     tie and the (lo, hi) tie-break decides;
///   - zero-sharing islands (private positions only), so the merge runs
///     dry and finishes on the rank-adjacent fallback.
/// Ranks are distinct, so order keys never tie.
std::vector<IterationChunk> oracle_chunks(mlsc::Rng& rng, std::size_t n) {
  std::vector<IterationChunk> chunks;
  std::uint64_t rank = 0;
  std::uint32_t private_pos = 1000;
  std::vector<std::uint32_t> last_bits;
  for (std::size_t i = 0; i < n; ++i) {
    std::vector<std::uint32_t> bits;
    const std::uint64_t shape = rng.next_below(10);
    if (shape == 0) {
      // Island: a position of its own, sometimes shared with the next
      // chunk so islands come in small groups.
      bits = {rng.next_below(2) == 0 ? private_pos : private_pos++};
    } else if (shape == 1 && !last_bits.empty()) {
      bits = last_bits;  // repeat: forces equal scores
    } else {
      if (shape > 2) bits.push_back(0);  // the hub
      const std::uint64_t extra = 1 + rng.next_below(4);
      for (std::uint64_t b = 0; b < extra; ++b) {
        bits.push_back(1 + static_cast<std::uint32_t>(rng.next_below(12)));
      }
    }
    if (shape != 0) last_bits = bits;
    const std::uint64_t len = 1 + rng.next_below(3);
    chunks.push_back(make_chunk(0, rank, rank + len, std::move(bits)));
    rank += len;
  }
  return chunks;
}

/// Brute-force greedy reference, independent of the production kernel:
/// every step scores every alive pair with ClusterTag::dot, merges the
/// best (average-linkage score, lo, hi), and without any sharing pair
/// merges the rank-adjacent pair with the smallest combined size.
/// Returns the surviving clusters at every alive count (index = count).
struct OracleRun {
  std::vector<std::vector<Cluster>> by_count;
  std::size_t tied_steps = 0;      // steps whose best score was tied
  std::size_t fallback_steps = 0;  // zero-sharing merges
};

OracleRun brute_force_greedy(std::vector<Cluster> clusters) {
  const std::size_t n = clusters.size();
  std::vector<bool> alive(n, true);
  OracleRun run;
  run.by_count.resize(n + 1);
  run.by_count[n] = clusters;
  for (std::size_t alive_count = n; alive_count > 1; --alive_count) {
    bool found = false;
    bool tied = false;
    double best = 0;
    std::uint32_t lo = 0;
    std::uint32_t hi = 0;
    for (std::uint32_t a = 0; a < n; ++a) {
      for (std::uint32_t b = a + 1; b < n; ++b) {
        if (!alive[a] || !alive[b]) continue;
        const std::uint64_t dot = clusters[a].tag.dot(clusters[b].tag);
        if (dot == 0) continue;
        const double score =
            static_cast<double>(dot) /
            (static_cast<double>(clusters[a].members.size()) *
             static_cast<double>(clusters[b].members.size()));
        if (found && score == best) tied = true;
        if (!found || score > best) {  // (a, b) ascend: first wins ties
          found = true;
          tied = false;
          best = score;
          lo = a;
          hi = b;
        }
      }
    }
    if (!found) {
      std::vector<std::uint32_t> order;
      for (std::uint32_t i = 0; i < n; ++i) {
        if (alive[i]) order.push_back(i);
      }
      std::sort(order.begin(), order.end(),
                [&](std::uint32_t x, std::uint32_t y) {
                  return clusters[x].order_key < clusters[y].order_key;
                });
      std::size_t pick = 0;
      for (std::size_t p = 1; p + 1 < order.size(); ++p) {
        if (clusters[order[p]].iterations + clusters[order[p + 1]].iterations <
            clusters[order[pick]].iterations +
                clusters[order[pick + 1]].iterations) {
          pick = p;
        }
      }
      lo = std::min(order[pick], order[pick + 1]);
      hi = std::max(order[pick], order[pick + 1]);
      ++run.fallback_steps;
    }
    run.tied_steps += tied ? 1 : 0;
    clusters[lo].absorb(std::move(clusters[hi]));
    alive[hi] = false;
    for (std::uint32_t i = 0; i < n; ++i) {
      if (alive[i]) run.by_count[alive_count - 1].push_back(clusters[i]);
    }
  }
  return run;
}

/// Runs the greedy kernel on `chunks` at every target in `targets`, at
/// no pool and at `pool`, and checks each result against the
/// brute-force merge sequence — every survivor's member order included.
void expect_greedy_matches_oracle(const std::vector<IterationChunk>& chunks,
                                  const OracleRun& oracle,
                                  const std::vector<std::size_t>& targets,
                                  ThreadPool& pool) {
  ClusterOptions greedy;
  greedy.algorithm = ClusterOptions::Algorithm::kGreedy;
  std::vector<std::uint32_t> all(chunks.size());
  for (std::uint32_t i = 0; i < all.size(); ++i) all[i] = i;
  for (ThreadPool* p : {static_cast<ThreadPool*>(nullptr), &pool}) {
    for (const std::size_t target : targets) {
      SCOPED_TRACE("n " + std::to_string(chunks.size()) + " target " +
                   std::to_string(target) + (p ? " 4 threads" : " serial"));
      auto table = chunks;
      auto clusters = make_singletons(all, table);
      cluster_to_count(clusters, target, table, p, greedy);
      const auto& want = oracle.by_count[target];
      ASSERT_EQ(clusters.size(), want.size());
      for (std::size_t i = 0; i < want.size(); ++i) {
        ASSERT_EQ(clusters[i].members, want[i].members) << "cluster " << i;
      }
    }
  }
}

OracleRun oracle_of(const std::vector<IterationChunk>& chunks) {
  std::vector<std::uint32_t> all(chunks.size());
  for (std::uint32_t i = 0; i < all.size(); ++i) all[i] = i;
  return brute_force_greedy(make_singletons(all, chunks));
}

/// The greedy's counted work for merging `clusters` down to one.
struct GreedyWork {
  std::uint64_t rescans = 0;
  std::uint64_t row_entries = 0;
};

GreedyWork merge_all_counting(std::vector<Cluster>& clusters,
                              std::vector<IterationChunk>& chunks) {
  ClusterOptions greedy;
  greedy.algorithm = ClusterOptions::Algorithm::kGreedy;
  const bool was_enabled = obs::metrics_enabled();
  obs::set_metrics_enabled(true);
  obs::Registry::global().reset();
  cluster_to_count(clusters, 1, chunks, nullptr, greedy);
  auto& registry = obs::Registry::global();
  const GreedyWork work{
      registry.counter("pipeline.clustering_rescans").value(),
      registry.counter("pipeline.clustering_row_entries").value()};
  obs::set_metrics_enabled(was_enabled);
  return work;
}

/// The greedy kernel must reproduce the brute-force merge sequence
/// exactly at every target and at 1 and 4 pool threads.
TEST(Clustering, GreedyMatchesBruteForceOracle) {
  mlsc::Rng rng(2010);
  ThreadPool pool(4);
  std::size_t tied_steps = 0;
  std::size_t fallback_steps = 0;
  for (int trial = 0; trial < 8; ++trial) {
    const std::size_t n = 20 + rng.next_below(40);
    const auto chunks = oracle_chunks(rng, n);
    const OracleRun oracle = oracle_of(chunks);
    tied_steps += oracle.tied_steps;
    fallback_steps += oracle.fallback_steps;
    std::vector<std::size_t> targets(n - 1);
    for (std::size_t t = 1; t < n; ++t) targets[t - 1] = t;
    expect_greedy_matches_oracle(chunks, oracle, targets, pool);
  }
  // The random shapes must actually reach the tie-break and the fallback.
  EXPECT_GT(tied_steps, 0u);
  EXPECT_GT(fallback_steps, 0u);
}

/// The same at n >= 300: above score_rows' 256-row cutoff, so the
/// 4-thread pool scores the initial rows in parallel, and with most
/// chunks on the hub position every merge sums rows of hundreds of
/// partners.  Targets are sampled; each one replays the whole merge
/// sequence down to it.
TEST(Clustering, GreedyMatchesBruteForceOracleAboveParallelCutoff) {
  mlsc::Rng rng(2022);
  ThreadPool pool(4);
  for (int trial = 0; trial < 2; ++trial) {
    const std::size_t n = 300 + rng.next_below(60);
    const auto chunks = oracle_chunks(rng, n);
    ASSERT_GT(std::count_if(chunks.begin(), chunks.end(),
                            [](const IterationChunk& c) {
                              return c.tag.test(0);
                            }),
              static_cast<std::ptrdiff_t>(n / 2))
        << "the hub position must be shared by most chunks";
    const OracleRun oracle = oracle_of(chunks);
    std::vector<std::size_t> targets;
    for (std::size_t t = 1; t < n; t += 1 + t / 4) targets.push_back(t);
    targets.push_back(n - 1);
    expect_greedy_matches_oracle(chunks, oracle, targets, pool);
  }
}

/// A row entry that resolves through two merges: chunk 3's initial row
/// holds chunk 2, which merges into 1 (shared B bits score 4), and 1
/// then into 0 (3 shared A bits over 2 members score 1.5), so into reads
/// 2 -> 1 -> 0.  Nothing reads row(3) in between; the stale-winner
/// rescan of 3 (its record still names 2) is the first to resolve that
/// entry, and must count it toward cluster 0.
TEST(Clustering, GreedyResolvesRowEntryThroughMergeChain) {
  const std::uint32_t a1 = 0, a2 = 1, a3 = 2;
  const std::uint32_t b1 = 3, b2 = 4, b3 = 5, b4 = 6;
  const std::uint32_t c = 7, d = 8;
  const std::vector<IterationChunk> chunks{
      make_chunk(0, 0, 10, {a1, a2, a3}),
      make_chunk(0, 10, 20, {a1, a2, a3, b1, b2, b3, b4}),
      make_chunk(0, 20, 30, {b1, b2, b3, b4, c}),
      make_chunk(0, 30, 40, {c, d}),
      make_chunk(0, 40, 50, {d}),
  };
  ThreadPool pool(4);
  const OracleRun oracle = oracle_of(chunks);
  expect_greedy_matches_oracle(chunks, oracle, {1, 2, 3, 4}, pool);

  // Work pinned at target 1: the transpose reads the 4 sharing pairs,
  // the merges read 2+2, 1+2 and 2+1 row entries, and the stale rescans
  // of 0, 3 and 0 read 1, 2 and 1.
  auto table = chunks;
  auto clusters = make_singletons({0, 1, 2, 3, 4}, table);
  const GreedyWork work = merge_all_counting(clusters, table);
  EXPECT_EQ(clusters[0].members, (std::vector<std::uint32_t>{0, 1, 2, 3, 4}));
  EXPECT_EQ(work.rescans, 3u);
  EXPECT_EQ(work.row_entries, 18u);
}

/// Offering each rescanned pair to its partner keeps that partner's
/// record exact, so no winner needs a rescan.  Tags {x}, {x,y}, {x,y}:
/// (1,2) merges first; cluster 0's record (0,1) then points at a merged
/// partner, and only the offer of the merged pair refreshes it.  The
/// merge sequence alone cannot show this (a stale winner is rescanned
/// and retried), so the test reads the rescan counter.
TEST(Clustering, GreedyOfferKeepsPartnerRecordsExact) {
  std::vector<IterationChunk> chunks{
      make_chunk(0, 0, 10, {0}),
      make_chunk(0, 10, 20, {0, 1}),
      make_chunk(0, 20, 30, {0, 1}),
  };
  auto clusters = make_singletons({0, 1, 2}, chunks);
  const GreedyWork work = merge_all_counting(clusters, chunks);
  ASSERT_EQ(clusters.size(), 1u);
  EXPECT_EQ(clusters[0].members, (std::vector<std::uint32_t>{0, 1, 2}));
  EXPECT_EQ(work.rescans, 0u);
  // Partner-row work: the transpose reads the 3 sharing pairs, and
  // merging 2 into 1 sums row(1) = {0, 2} and row(2) = {0, 1}; the last
  // merge reaches the target and reads nothing.
  EXPECT_EQ(work.row_entries, 7u);
}

ClusterOptions forest_options() {
  ClusterOptions options;
  options.algorithm = ClusterOptions::Algorithm::kForest;
  return options;
}

/// The affinity forest reproduces the paper's level-1 families on the
/// worked example: the best-neighbor forest connects the odd and even
/// chains, and the cut severs the single weakest cross edge.
TEST(Clustering, ForestMatchesFig9FirstLevel) {
  auto chunks = fig8_chunks();
  std::vector<std::uint32_t> all{0, 1, 2, 3, 4, 5, 6, 7};
  auto clusters = make_singletons(all, chunks);
  cluster_to_count(clusters, 2, chunks, nullptr, forest_options());
  ASSERT_EQ(clusters.size(), 2u);
  std::set<std::uint32_t> a(clusters[0].members.begin(),
                            clusters[0].members.end());
  std::set<std::uint32_t> b(clusters[1].members.begin(),
                            clusters[1].members.end());
  const std::set<std::uint32_t> odd{0, 2, 4, 6};
  const std::set<std::uint32_t> even{1, 3, 5, 7};
  EXPECT_TRUE((a == odd && b == even) || (a == even && b == odd));
}

TEST(Clustering, ForestReducesToTargetPreservingTotals) {
  auto chunks = fig8_chunks();
  std::vector<std::uint32_t> all{0, 1, 2, 3, 4, 5, 6, 7};
  auto clusters = make_singletons(all, chunks);
  cluster_to_count(clusters, 3, chunks, nullptr, forest_options());
  ASSERT_EQ(clusters.size(), 3u);
  std::uint64_t total = 0;
  std::set<std::uint32_t> seen;
  for (const auto& c : clusters) {
    total += c.iterations;
    seen.insert(c.members.begin(), c.members.end());
  }
  EXPECT_EQ(total, 64u);
  EXPECT_EQ(seen.size(), 8u);  // every member survives exactly once
}

TEST(Clustering, ForestZeroSharingMergesRankAdjacent) {
  // Disconnected graph: the forest has no edges at all, so the whole
  // reduction runs through the rank-adjacent fallback.
  std::vector<IterationChunk> chunks{
      make_chunk(0, 0, 10, {0}),
      make_chunk(0, 10, 20, {1}),
      make_chunk(0, 20, 30, {2}),
      make_chunk(0, 30, 40, {3}),
  };
  std::vector<std::uint32_t> all{0, 1, 2, 3};
  auto clusters = make_singletons(all, chunks);
  cluster_to_count(clusters, 2, chunks, nullptr, forest_options());
  ASSERT_EQ(clusters.size(), 2u);
  for (auto& c : clusters) std::sort(c.members.begin(), c.members.end());
  const auto& a = clusters[0].members.front() == 0 ? clusters[0] : clusters[1];
  EXPECT_EQ(a.members, (std::vector<std::uint32_t>{0, 1}));
}

TEST(Clustering, ForestBalancedCutAvoidsGiantComponent) {
  // A chain a0-a1-...-a63 (each adjacent pair shares one data chunk) is
  // single-linkage's worst case: an uncapped cut would put everything in
  // one component.  The balance-aware cut must keep both sides near
  // half.
  std::vector<IterationChunk> chunks;
  for (std::uint32_t i = 0; i < 64; ++i) {
    chunks.push_back(make_chunk(0, i * 10, (i + 1) * 10, {i, i + 1}));
  }
  std::vector<std::uint32_t> all(64);
  for (std::uint32_t i = 0; i < 64; ++i) all[i] = i;
  auto clusters = make_singletons(all, chunks);
  cluster_to_count(clusters, 2, chunks, nullptr, forest_options());
  ASSERT_EQ(clusters.size(), 2u);
  const std::uint64_t cap =
      static_cast<std::uint64_t>(640.0 / 2.0 * 1.1);
  EXPECT_LE(clusters[0].iterations, cap);
  EXPECT_LE(clusters[1].iterations, cap);
}

TEST(Clustering, AutoUsesGreedyBelowThresholdForestAbove) {
  // kAuto must route small inputs to the greedy oracle: identical result
  // to an explicit kGreedy run on the worked example.
  auto chunks_auto = fig8_chunks();
  auto chunks_greedy = fig8_chunks();
  std::vector<std::uint32_t> all{0, 1, 2, 3, 4, 5, 6, 7};
  auto auto_clusters = make_singletons(all, chunks_auto);
  auto greedy_clusters = make_singletons(all, chunks_greedy);
  ClusterOptions greedy;
  greedy.algorithm = ClusterOptions::Algorithm::kGreedy;
  cluster_to_count(auto_clusters, 3, chunks_auto);  // default: kAuto
  cluster_to_count(greedy_clusters, 3, chunks_greedy, nullptr, greedy);
  ASSERT_EQ(auto_clusters.size(), greedy_clusters.size());
  for (std::size_t i = 0; i < auto_clusters.size(); ++i) {
    EXPECT_EQ(auto_clusters[i].members, greedy_clusters[i].members);
  }

  // And a forest_threshold of 0 routes everything to the forest.
  auto chunks_forest = fig8_chunks();
  auto forest_clusters = make_singletons(all, chunks_forest);
  ClusterOptions forced_auto;
  forced_auto.forest_threshold = 0;
  cluster_to_count(forest_clusters, 2, chunks_forest, nullptr, forced_auto);
  ASSERT_EQ(forest_clusters.size(), 2u);
}

}  // namespace
}  // namespace mlsc::core
