// Replacement-policy tests: per-policy behaviour plus cross-policy
// invariants, an LRU/FIFO reference-model property test and a memory
// bound for cores sized far beyond their contents.
#include <gtest/gtest.h>

#include <sys/resource.h>

#include <algorithm>
#include <cstdint>
#include <deque>
#include <memory>
#include <string>
#include <unordered_set>
#include <vector>

#include "cache/policy.h"
#include "support/check.h"
#include "support/rng.h"

namespace mlsc::cache {
namespace {

TEST(PolicyNames, RoundTrip) {
  for (PolicyKind kind :
       {PolicyKind::kLru, PolicyKind::kFifo, PolicyKind::kClock,
        PolicyKind::kLfu, PolicyKind::kTwoQ, PolicyKind::kMq}) {
    EXPECT_EQ(parse_policy_kind(policy_kind_name(kind)), kind);
  }
  EXPECT_THROW(parse_policy_kind("belady"), Error);
}

TEST(Lru, EvictsLeastRecentlyUsed) {
  auto p = make_policy(PolicyKind::kLru, 2);
  EXPECT_FALSE(p->insert(1).has_value());
  EXPECT_FALSE(p->insert(2).has_value());
  EXPECT_TRUE(p->touch(1));  // 2 is now LRU
  EXPECT_EQ(p->insert(3), std::optional<ChunkId>{2});
  EXPECT_TRUE(p->contains(1));
  EXPECT_TRUE(p->contains(3));
}

TEST(Fifo, IgnoresHitsForVictimChoice) {
  auto p = make_policy(PolicyKind::kFifo, 2);
  p->insert(1);
  p->insert(2);
  EXPECT_TRUE(p->touch(1));          // does not protect 1 under FIFO
  EXPECT_EQ(p->insert(3), std::optional<ChunkId>{1});
}

TEST(Clock, SecondChanceProtectsReferenced) {
  auto p = make_policy(PolicyKind::kClock, 2);
  p->insert(1);
  p->insert(2);
  EXPECT_TRUE(p->touch(1));
  // Hand sweeps: 1 referenced (cleared, skipped), 2 unreferenced... but 2
  // was just inserted with its bit set too; both get cleared, then 1 is
  // the first unreferenced frame.  The key property: eviction succeeds
  // and size stays at capacity.
  p->insert(3);
  EXPECT_EQ(p->size(), 2u);
  EXPECT_TRUE(p->contains(3));
}

TEST(Lfu, EvictsLeastFrequent) {
  auto p = make_policy(PolicyKind::kLfu, 2);
  p->insert(1);
  p->touch(1);
  p->touch(1);
  p->insert(2);
  EXPECT_EQ(p->insert(3), std::optional<ChunkId>{2});  // freq(2)=1 < freq(1)=3
}

TEST(TwoQ, GhostHitPromotesToMain) {
  auto p = make_policy(PolicyKind::kTwoQ, 4);  // A1in capacity 1
  p->insert(1);
  p->insert(2);
  p->insert(3);
  p->insert(4);
  // Fill past capacity: A1in reclaims oldest into the ghost queue.
  p->insert(5);
  EXPECT_EQ(p->size(), 4u);
  // Re-inserting a ghosted chunk must land it in Am (still resident after
  // further A1in churn).
  const bool was_ghosted = !p->contains(1);
  if (was_ghosted) {
    p->insert(1);
    EXPECT_TRUE(p->contains(1));
  }
}

TEST(Mq, PromotesByFrequency) {
  auto p = make_policy(PolicyKind::kMq, 3);
  p->insert(1);
  for (int i = 0; i < 8; ++i) p->touch(1);  // queue ~3
  p->insert(2);
  p->insert(3);
  // 1 is in a high queue; inserting 4 should evict from the lowest
  // non-empty queue, never 1.
  const auto evicted = p->insert(4);
  ASSERT_TRUE(evicted.has_value());
  EXPECT_NE(*evicted, 1u);
  EXPECT_TRUE(p->contains(1));
}

TEST(Arc, AdaptsAndPromotesOnSecondReference) {
  auto p = make_policy(PolicyKind::kArc, 4);
  p->insert(1);
  p->insert(2);
  EXPECT_TRUE(p->touch(1));  // 1 promoted to T2
  p->insert(3);
  p->insert(4);
  // Cache full; a scan of new chunks should not evict the re-referenced 1.
  p->insert(5);
  p->insert(6);
  EXPECT_TRUE(p->contains(1));
}

TEST(Arc, GhostHitSteersAdaptation) {
  auto p = make_policy(PolicyKind::kArc, 2);
  p->insert(1);
  p->insert(2);
  p->insert(3);  // evicts 1 into the B1 ghost list
  EXPECT_FALSE(p->contains(1));
  p->insert(1);  // ghost hit: re-enters as a frequency block
  EXPECT_TRUE(p->contains(1));
  EXPECT_LE(p->size(), 2u);
}

TEST(Policies, RejectZeroCapacity) {
  EXPECT_THROW(make_policy(PolicyKind::kLru, 0), Error);
}

/// Cross-policy invariants on a random workload: size never exceeds
/// capacity, contains() agrees with touch(), erase removes, insert of a
/// resident chunk never evicts.
class PolicyInvariantTest : public ::testing::TestWithParam<PolicyKind> {};

TEST_P(PolicyInvariantTest, RandomWorkloadInvariants) {
  const std::size_t capacity = 16;
  auto p = make_policy(GetParam(), capacity);
  Rng rng(99);
  std::unordered_set<ChunkId> resident;
  for (int step = 0; step < 5000; ++step) {
    const auto chunk = static_cast<ChunkId>(rng.next_below(64));
    const auto action = rng.next_below(10);
    if (action < 6) {
      const bool hit = p->touch(chunk);
      EXPECT_EQ(hit, resident.count(chunk) > 0);
      if (!hit) {
        const auto evicted = p->insert(chunk);
        resident.insert(chunk);
        if (evicted.has_value()) {
          EXPECT_TRUE(resident.count(*evicted) > 0);
          EXPECT_NE(*evicted, chunk);
          resident.erase(*evicted);
        }
      }
    } else if (action < 8) {
      const auto evicted = p->insert(chunk);
      if (resident.count(chunk)) {
        EXPECT_FALSE(evicted.has_value()) << "resident insert must not evict";
      } else {
        resident.insert(chunk);
        if (evicted.has_value()) resident.erase(*evicted);
      }
    } else {
      const bool erased = p->erase(chunk);
      EXPECT_EQ(erased, resident.count(chunk) > 0);
      resident.erase(chunk);
    }
    EXPECT_LE(p->size(), capacity);
    EXPECT_EQ(p->size(), resident.size());
    for (ChunkId r : resident) {
      EXPECT_TRUE(p->contains(r)) << "chunk " << r << " lost";
    }
  }
}

INSTANTIATE_TEST_SUITE_P(AllPolicies, PolicyInvariantTest,
                         ::testing::Values(PolicyKind::kLru, PolicyKind::kFifo,
                                           PolicyKind::kClock,
                                           PolicyKind::kLfu, PolicyKind::kTwoQ,
                                           PolicyKind::kMq, PolicyKind::kArc),
                         [](const auto& info) {
                           return std::string(policy_kind_name(info.param));
                         });

/// Steps one LRU or FIFO core through random touches, fills, resident
/// re-inserts, erases and membership probes, and checks it against a
/// deque reference model (front = most recent) after every step.
/// `pool` holds the chunk ids to draw from.
void check_list_policy_against_reference(PolicyKind kind, std::size_t capacity,
                                         const std::vector<ChunkId>& pool,
                                         std::uint64_t seed, int steps) {
  SCOPED_TRACE(std::string(policy_kind_name(kind)) + " capacity " +
               std::to_string(capacity) + " pool " +
               std::to_string(pool.size()));
  const bool lru = kind == PolicyKind::kLru;
  auto p = make_policy(kind, capacity);
  std::deque<ChunkId> ref;
  Rng rng(seed);
  for (int step = 0; step < steps; ++step) {
    const ChunkId chunk = pool[rng.next_below(pool.size())];
    auto it = std::find(ref.begin(), ref.end(), chunk);
    const bool resident = it != ref.end();
    const auto action = rng.next_below(10);
    if (action < 7) {
      // A touch that fills on a miss, or (action 6) a bare insert, which
      // counts as a hit on a resident chunk.
      if (action < 6) {
        ASSERT_EQ(p->touch(chunk), resident) << "step " << step;
      }
      if (resident) {
        if (action == 6) {
          ASSERT_FALSE(p->insert(chunk).has_value()) << "step " << step;
        }
        if (lru) {
          ref.erase(it);
          ref.push_front(chunk);
        }
      } else {
        const auto evicted = p->insert(chunk);
        if (ref.size() == capacity) {
          ASSERT_TRUE(evicted.has_value()) << "step " << step;
          ASSERT_EQ(*evicted, ref.back()) << "step " << step;
          ref.pop_back();
        } else {
          ASSERT_FALSE(evicted.has_value()) << "step " << step;
        }
        ref.push_front(chunk);
      }
    } else if (action < 9) {
      ASSERT_EQ(p->erase(chunk), resident) << "step " << step;
      if (resident) ref.erase(it);
    } else {
      ASSERT_EQ(p->contains(chunk), resident) << "step " << step;
    }
    ASSERT_EQ(p->size(), ref.size()) << "step " << step;
  }
  // Every resident chunk is still found, every other pool id is not.
  for (ChunkId chunk : pool) {
    EXPECT_EQ(p->contains(chunk),
              std::find(ref.begin(), ref.end(), chunk) != ref.end());
  }
}

/// Ids whose Fibonacci hash lands in the last bucket of every index of up
/// to 2048 buckets, so that they collide and their probe chains wrap.
std::vector<ChunkId> colliding_ids(std::size_t count) {
  std::vector<ChunkId> ids;
  Rng rng(17);
  while (ids.size() < count) {
    const auto id = static_cast<ChunkId>(rng.next_u64());
    if (((static_cast<std::uint64_t>(id) * 0x9E3779B97F4A7C15ull) >> 53) ==
        2047) {
      ids.push_back(id);
    }
  }
  return ids;
}

/// Property: the LRU and FIFO cores match a simple deque reference model
/// exactly, for chunk ids from a small dense range and from the whole
/// 32-bit range (including 0, the top ids and index collisions).
TEST(LruProperty, MatchesReferenceModel) {
  const std::vector<ChunkId> collide = colliding_ids(64);
  for (PolicyKind kind : {PolicyKind::kLru, PolicyKind::kFifo}) {
    // 1500 outgrows the cores' initial 1024-entry arrays.
    for (std::size_t capacity : {1, 2, 3, 8, 513, 1500}) {
      const std::size_t pool_size = 2 * capacity + 8;
      std::vector<ChunkId> dense(pool_size);
      for (std::size_t i = 0; i < pool_size; ++i) {
        dense[i] = static_cast<ChunkId>(i);
      }
      check_list_policy_against_reference(kind, capacity, dense,
                                          5 + capacity, 100000);
      std::vector<ChunkId> wide = {0, UINT32_MAX - 1, UINT32_MAX};
      Rng rng(capacity);
      for (std::size_t i = 0; wide.size() < pool_size; ++i) {
        wide.push_back(i % 2 == 0 ? collide[(i / 2) % collide.size()]
                                  : static_cast<ChunkId>(rng.next_u64()));
      }
      check_list_policy_against_reference(kind, capacity, wide,
                                          7 + capacity, 100000);
      if (HasFatalFailure()) return;
    }
  }
}

/// Property: CLOCK picks the same victims as a naive frame array that
/// fills the first empty frame from frame 0 and sweeps a hand over
/// reference bits, with erases punching holes in the array.
TEST(ClockProperty, MatchesReferenceModel) {
  for (std::size_t capacity : {1, 2, 3, 8, 33}) {
    SCOPED_TRACE("capacity " + std::to_string(capacity));
    struct Frame {
      bool occupied = false;
      bool referenced = false;
      ChunkId chunk = 0;
    };
    std::vector<Frame> frames(capacity);
    std::size_t hand = 0;
    auto find = [&frames](ChunkId chunk) {
      return std::find_if(frames.begin(), frames.end(),
                          [chunk](const Frame& f) {
                            return f.occupied && f.chunk == chunk;
                          });
    };
    auto p = make_policy(PolicyKind::kClock, capacity);
    Rng rng(capacity);
    for (int step = 0; step < 20000; ++step) {
      const auto chunk = static_cast<ChunkId>(rng.next_below(3 * capacity));
      auto it = find(chunk);
      const bool resident = it != frames.end();
      if (rng.next_below(4) == 0) {
        ASSERT_EQ(p->erase(chunk), resident) << "step " << step;
        if (resident) *it = Frame{};
        continue;
      }
      const auto evicted = p->insert(chunk);
      if (resident) {
        ASSERT_FALSE(evicted.has_value()) << "step " << step;
        it->referenced = true;
        continue;
      }
      auto empty = std::find_if(frames.begin(), frames.end(),
                                [](const Frame& f) { return !f.occupied; });
      if (empty != frames.end()) {
        ASSERT_FALSE(evicted.has_value()) << "step " << step;
        *empty = Frame{true, true, chunk};
        continue;
      }
      while (frames[hand].referenced) {
        frames[hand].referenced = false;
        hand = (hand + 1) % capacity;
      }
      ASSERT_TRUE(evicted.has_value()) << "step " << step;
      ASSERT_EQ(*evicted, frames[hand].chunk) << "step " << step;
      frames[hand] = Frame{true, true, chunk};
      hand = (hand + 1) % capacity;
    }
  }
}

/// Memory follows the resident count, not the capacity: cores sized at
/// 2^24 chunks that hold 1,000 chunks each raise the peak RSS by well
/// under what one capacity-sized array would take.  ru_maxrss is a
/// process-wide high-water mark, so this relies on ctest running each
/// test in its own process.
TEST(PolicyMemory, FollowsResidentCountNotCapacity) {
  rusage before{};
  ASSERT_EQ(getrusage(RUSAGE_SELF, &before), 0);
  std::vector<std::unique_ptr<PolicyCore>> cores;
  for (PolicyKind kind :
       {PolicyKind::kLru, PolicyKind::kFifo, PolicyKind::kClock}) {
    cores.push_back(make_policy(kind, std::size_t{1} << 24));
    for (ChunkId chunk = 0; chunk < 1000; ++chunk) {
      cores.back()->insert(chunk * 7919);
    }
    EXPECT_EQ(cores.back()->size(), 1000u);
  }
  rusage after{};
  ASSERT_EQ(getrusage(RUSAGE_SELF, &after), 0);
  EXPECT_LT(after.ru_maxrss - before.ru_maxrss, 16 * 1024)  // KiB
      << "peak RSS grew by " << after.ru_maxrss - before.ru_maxrss
      << " KiB";
}

}  // namespace
}  // namespace mlsc::cache
