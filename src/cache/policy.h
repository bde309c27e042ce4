// Replacement policy cores for chunk-granularity storage caches.
//
// The paper manages all storage caches with LRU (§5.1) but notes the
// approach "can work with any storage caching policy"; the policy
// ablation bench exercises that claim with the alternatives studied in
// its related work (FIFO, CLOCK, LFU, 2Q, MQ — Zhou et al.'s multi-queue
// policy for second-level buffer caches).
//
// A PolicyCore owns the resident set: membership, hit recency state, and
// victim selection live together so policies with ghost state (2Q, MQ)
// fit the same interface.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>

namespace mlsc::cache {

/// Global data-chunk id (index into the DataSpace's chunk numbering).
using ChunkId = std::uint32_t;

enum class PolicyKind { kLru, kFifo, kClock, kLfu, kTwoQ, kMq, kArc };

const char* policy_kind_name(PolicyKind kind);

/// Parses "lru", "fifo", "clock", "lfu", "2q", "mq", "arc"; throws on
/// others.
PolicyKind parse_policy_kind(const std::string& name);

class PolicyCore {
 public:
  virtual ~PolicyCore() = default;

  /// True when the chunk is resident.
  virtual bool contains(ChunkId id) const = 0;

  /// Records an access to a resident chunk; returns false when the chunk
  /// is not resident (the caller then fetches and calls insert()).
  virtual bool touch(ChunkId id) = 0;

  /// Makes the chunk resident, evicting if at capacity.  Returns the
  /// evicted chunk, if any.  Inserting a resident chunk is a no-op that
  /// returns nullopt.
  virtual std::optional<ChunkId> insert(ChunkId id) = 0;

  /// Removes a chunk (external invalidation, e.g. exclusive-caching
  /// promotion).  Returns false when it was not resident.
  virtual bool erase(ChunkId id) = 0;

  virtual std::size_t size() const = 0;
  virtual std::size_t capacity() const = 0;
  virtual PolicyKind kind() const = 0;
};

/// Creates a policy core with the given capacity in chunks (must be > 0).
std::unique_ptr<PolicyCore> make_policy(PolicyKind kind,
                                        std::size_t capacity_chunks);

}  // namespace mlsc::cache
