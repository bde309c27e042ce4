// The cache-behavior explanation layer (obs/cache_insight.h,
// DESIGN.md §18): the Mattson reuse-distance profiler against a
// brute-force oracle, the miss-classification partition, the capacity
// curve's bit-exactness at the configured capacity, eviction
// attribution, and thread-count determinism of the whole result.
#include <algorithm>
#include <random>
#include <sstream>
#include <vector>

#include <gtest/gtest.h>

#include "cache/storage_cache.h"
#include "obs/cache_insight.h"
#include "sim/experiment.h"
#include "support/units.h"
#include "workloads/registry.h"

namespace mlsc {
namespace {

using sim::MachineConfig;
using core::PipelineOptions;

/// Brute-force exclusive reuse distance: the number of *distinct* chunks
/// touched since the previous access to `chunk`, via an explicit LRU
/// stack (vector front = most recent).
class OracleStack {
 public:
  std::uint64_t access(std::uint32_t chunk) {
    const auto it = std::find(stack_.begin(), stack_.end(), chunk);
    std::uint64_t distance = obs::MattsonStack::kFirstTouch;
    if (it != stack_.end()) {
      distance = static_cast<std::uint64_t>(it - stack_.begin());
      stack_.erase(it);
    }
    stack_.insert(stack_.begin(), chunk);
    return distance;
  }
  void clear() { stack_.clear(); }

 private:
  std::vector<std::uint32_t> stack_;
};

TEST(MattsonStack, MatchesBruteForceOracleOnRandomTraces) {
  // Long enough to force several Fenwick slot compactions/doublings
  // (the slot array starts at 1024 and compacts when it fills).
  std::mt19937 rng(20100621);  // HPDC'10
  for (int round = 0; round < 3; ++round) {
    const std::uint32_t universe = round == 0 ? 7 : (round == 1 ? 256 : 40);
    std::uniform_int_distribution<std::uint32_t> chunk(0, universe - 1);
    obs::MattsonStack stack;
    OracleStack oracle;
    for (int i = 0; i < 20000; ++i) {
      const std::uint32_t c = chunk(rng);
      ASSERT_EQ(stack.access(c), oracle.access(c))
          << "round " << round << " access " << i << " chunk " << c;
    }
    EXPECT_LE(stack.live_chunks(), universe);
    // A cold restart forgets everything on both sides.
    stack.clear();
    oracle.clear();
    for (int i = 0; i < 2000; ++i) {
      const std::uint32_t c = chunk(rng);
      ASSERT_EQ(stack.access(c), oracle.access(c)) << "post-clear " << i;
    }
  }
}

TEST(MattsonStack, SequentialAndRepeatedPatterns) {
  obs::MattsonStack stack;
  // First touches.
  for (std::uint32_t c = 0; c < 10; ++c) {
    EXPECT_EQ(stack.access(c), obs::MattsonStack::kFirstTouch);
  }
  // Immediate re-access: distance 0.
  EXPECT_EQ(stack.access(9), 0u);
  // Re-access below one intervening distinct chunk: distance 1; touching
  // the same interloper twice still counts it once (distances are over
  // distinct chunks).
  stack.access(3);
  stack.access(3);
  EXPECT_EQ(stack.access(9), 1u);
  EXPECT_EQ(stack.live_chunks(), 10u);
}

TEST(CacheInsight, ClassifiesInterferenceAndAttributesEvictions) {
  // Two clients sharing a 2-chunk LRU cache.  Client 0 touches A=0, B=1;
  // client 1 touches C=2 (evicting A); client 0 re-touches A: alone it
  // would have hit (solo distance 1 < 2), so the miss is interference,
  // and the eviction matrix charges client 1 with evicting client 0.
  obs::HierarchyInsight hierarchy(2);
  obs::CacheInsight& insight = hierarchy.add_cache("shared.l2", 2, 2);
  cache::StorageCache cache("shared.l2", 2, cache::PolicyKind::kLru);
  cache.set_insight(&insight);

  auto touch = [&](std::uint32_t client, cache::ChunkId chunk) {
    hierarchy.set_current_client(client);
    if (!cache.access(chunk)) cache.insert(chunk);
  };
  touch(0, 0);  // A: compulsory
  touch(0, 1);  // B: compulsory
  touch(1, 2);  // C: compulsory, evicts A (owner: client 0)
  touch(0, 0);  // A again: interference (would hit alone)

  const obs::InsightResult result = hierarchy.finalize();
  ASSERT_EQ(result.levels.size(), 1u);
  const obs::LevelInsight& level = result.levels[0];
  EXPECT_EQ(level.level, 2);
  EXPECT_EQ(level.accesses, 4u);
  EXPECT_EQ(level.hits, 0u);
  EXPECT_EQ(level.misses, 4u);
  EXPECT_EQ(level.compulsory, 3u);
  EXPECT_EQ(level.capacity, 0u);
  EXPECT_EQ(level.interference, 1u);
  EXPECT_DOUBLE_EQ(level.interference_miss_pct(), 25.0);
  // Victim-major matrix: client 1's fill evicted client 0's A, and the
  // final re-fill of A self-evicted client 0's own B.
  ASSERT_EQ(level.eviction_matrix.size(), 4u);
  EXPECT_EQ(level.eviction_matrix[0 * 2 + 1], 1u);
  EXPECT_EQ(level.eviction_matrix[0 * 2 + 0], 1u);
  EXPECT_EQ(level.eviction_matrix[1 * 2 + 0], 0u);
  EXPECT_EQ(level.eviction_matrix[1 * 2 + 1], 0u);

  // Curve: at the configured capacity the prediction reproduces the
  // measured misses; one chunk more and the interference miss heals.
  EXPECT_EQ(insight.predicted_misses(2), 4u);
  EXPECT_EQ(insight.predicted_misses(3), 3u);
  bool found_configured = false;
  for (const obs::CurvePoint& point : level.curve) {
    if (point.capacity_chunks == level.capacity_chunks) {
      found_configured = true;
      EXPECT_EQ(point.predicted_misses, level.misses);
    }
  }
  EXPECT_TRUE(found_configured);
}

TEST(CacheInsight, SoloCapacityMissIsNotInterference) {
  // One client alone on a 2-chunk cache cycling through 3 chunks: every
  // re-access has solo distance 2 >= capacity, so the misses after the
  // cold ones are capacity, never interference.
  obs::HierarchyInsight hierarchy(1);
  obs::CacheInsight& insight = hierarchy.add_cache("solo.l2", 2, 2);
  cache::StorageCache cache("solo.l2", 2, cache::PolicyKind::kLru);
  cache.set_insight(&insight);
  hierarchy.set_current_client(0);
  for (int round = 0; round < 4; ++round) {
    for (cache::ChunkId c = 0; c < 3; ++c) {
      if (!cache.access(c)) cache.insert(c);
    }
  }
  const obs::InsightResult result = hierarchy.finalize();
  ASSERT_EQ(result.levels.size(), 1u);
  EXPECT_EQ(result.levels[0].misses, 12u);
  EXPECT_EQ(result.levels[0].compulsory, 3u);
  EXPECT_EQ(result.levels[0].capacity, 9u);
  EXPECT_EQ(result.levels[0].interference, 0u);
  EXPECT_EQ(insight.predicted_misses(3), 3u);  // all hits with one more chunk
}

TEST(CacheInsight, ResetPreservesCountersAndRestartsCold) {
  obs::HierarchyInsight hierarchy(1);
  obs::CacheInsight& insight = hierarchy.add_cache("l2", 2, 4);
  cache::StorageCache cache("l2", 4, cache::PolicyKind::kLru);
  cache.set_insight(&insight);
  hierarchy.set_current_client(0);
  for (cache::ChunkId c = 0; c < 4; ++c) {
    if (!cache.access(c)) cache.insert(c);
  }
  // Degraded restart (contents lost, stats survive) — mirrored to the
  // insight layer by set_capacity.
  cache.set_capacity(2);
  for (cache::ChunkId c = 0; c < 2; ++c) {
    if (!cache.access(c)) cache.insert(c);
  }
  const obs::InsightResult result = hierarchy.finalize();
  ASSERT_EQ(result.levels.size(), 1u);
  // 4 cold misses before the restart + 2 first touches after (the
  // restart forgot residency *and* history, so they count compulsory).
  EXPECT_EQ(result.levels[0].misses, cache.stats().misses);
  EXPECT_EQ(result.levels[0].misses, 6u);
  EXPECT_EQ(result.levels[0].compulsory, 6u);
}

/// The two whole-run invariants of DESIGN.md §18, checked for one
/// experiment: the classes partition the misses exactly at every level,
/// and (LRU + access-based placement, the default machine) the curve
/// point at the configured capacity reproduces the measured misses
/// bit-exactly.
void expect_insight_invariants(const sim::ExperimentResult& result) {
  const obs::InsightResult& insight = result.engine.insight;
  ASSERT_FALSE(insight.empty());
  const cache::CacheStats* stats[] = {&result.engine.l1, &result.engine.l2,
                                      &result.engine.l3};
  ASSERT_EQ(insight.levels.size(), 3u);
  for (const obs::LevelInsight& level : insight.levels) {
    SCOPED_TRACE(level.level_name());
    EXPECT_EQ(level.compulsory + level.capacity + level.interference,
              level.misses);
    // The insight layer counts the same events as CacheStats.
    ASSERT_GE(level.level, 1);
    ASSERT_LE(level.level, 3);
    EXPECT_EQ(level.accesses, stats[level.level - 1]->accesses);
    EXPECT_EQ(level.hits, stats[level.level - 1]->hits);
    EXPECT_EQ(level.misses, stats[level.level - 1]->misses);
    bool found_configured = false;
    for (const obs::CurvePoint& point : level.curve) {
      if (point.capacity_chunks == level.capacity_chunks) {
        found_configured = true;
        EXPECT_EQ(point.predicted_misses, level.misses);
      }
    }
    EXPECT_TRUE(found_configured);
    // Curves are monotone: more capacity never means more misses.
    for (std::size_t i = 1; i < level.curve.size(); ++i) {
      EXPECT_LE(level.curve[i].predicted_misses,
                level.curve[i - 1].predicted_misses);
    }
  }
}

MachineConfig small_machine() {
  MachineConfig config;
  config.clients = 8;
  config.io_nodes = 4;
  config.storage_nodes = 2;
  config.client_cache_bytes = 2 * kMiB;
  config.io_cache_bytes = 2 * kMiB;
  config.storage_cache_bytes = 2 * kMiB;
  config.explain = true;
  return config;
}

TEST(CacheInsight, PartitionAndCurveHoldForEveryRegistryWorkload) {
  const MachineConfig config = small_machine();
  for (const std::string& name : workloads::workload_names()) {
    SCOPED_TRACE(name);
    const auto workload = workloads::make_workload(name, 1.0 / 16.0);
    const auto result =
        sim::run_experiment(workload, PipelineOptions::inter(), config);
    expect_insight_invariants(result);
  }
}

TEST(CacheInsight, PartitionAndCurveHoldAtPaperTopology) {
  // The default 64/32/16 machine — the shape CI's mlsc_map --explain
  // run and the committed baseline use.
  MachineConfig config;
  config.explain = true;
  const auto workload = workloads::make_workload("sar", 1.0 / 16.0);
  const auto result =
      sim::run_experiment(workload, PipelineOptions::original(), config);
  expect_insight_invariants(result);
}

TEST(CacheInsight, DisabledByDefaultAndEmpty) {
  MachineConfig config = small_machine();
  config.explain = false;
  const auto workload = workloads::make_workload("hf", 1.0 / 16.0);
  const auto result =
      sim::run_experiment(workload, PipelineOptions::inter(), config);
  EXPECT_TRUE(result.engine.insight.empty());
}

// Label: concurrency (TSan gate).  The insight layer is written only
// from the serial replay loop, so the full result — curves, classes,
// matrices — must be byte-identical at any mapping thread count.
TEST(CacheInsight, ResultIsIdenticalAtAnyThreadCount) {
  const MachineConfig config = small_machine();
  const auto workload = workloads::make_workload("astro", 1.0 / 16.0);
  PipelineOptions serial = PipelineOptions::inter();
  serial.num_threads = 1;
  PipelineOptions parallel = PipelineOptions::inter();
  parallel.num_threads = 4;
  const auto a = sim::run_experiment(workload, serial, config);
  const auto b = sim::run_experiment(workload, parallel, config);
  std::ostringstream ja, jb;
  obs::write_insight_json(ja, a.engine.insight);
  obs::write_insight_json(jb, b.engine.insight);
  EXPECT_FALSE(a.engine.insight.empty());
  EXPECT_EQ(ja.str(), jb.str());
}

}  // namespace
}  // namespace mlsc
