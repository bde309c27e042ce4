// LRU and FIFO policy cores.  Both keep one recency list; FIFO simply
// never reorders on hit.
//
// The list is intrusive over a flat slot array (chunk id plus prev/next
// slot indices, freed slots chained on a free list), and an
// open-addressing chunk -> slot index with linear probing and
// backward-shift deletion finds a chunk's slot.  Both arrays start with
// room for min(capacity, kInitialEntries) chunks and then grow with the
// resident count, never past what the capacity needs, so a cache sized
// at millions of chunks costs memory only for what it holds; once they
// reach their working size, hits, fills and evictions allocate nothing.
#include <algorithm>
#include <bit>
#include <limits>
#include <vector>

#include "cache/policy.h"
#include "support/check.h"

namespace mlsc::cache {
namespace {

class ListPolicy : public PolicyCore {
 public:
  ListPolicy(std::size_t capacity, bool move_on_hit, PolicyKind kind)
      : capacity_(capacity), move_on_hit_(move_on_hit), kind_(kind) {
    MLSC_CHECK(capacity_ > 0, "cache capacity must be positive");
    const std::size_t initial = std::min(capacity_, kInitialEntries);
    slots_.reserve(initial);
    resize_index(std::bit_ceil(2 * initial));
  }

  bool contains(ChunkId id) const override { return find(id) != kNil; }

  bool touch(ChunkId id) override {
    const std::uint32_t bucket = find(id);
    if (bucket == kNil) return false;
    if (move_on_hit_) {
      const std::uint32_t slot = index_[bucket].slot;
      if (slot != head_) {
        unlink(slot);
        push_front(slot);
      }
    }
    return true;
  }

  std::optional<ChunkId> insert(ChunkId id) override {
    if (touch(id)) return std::nullopt;
    std::optional<ChunkId> evicted;
    std::uint32_t slot;
    if (size_ == capacity_) {
      // Reuse the least recent entry's slot for the newcomer.
      slot = tail_;
      evicted = slots_[slot].chunk;
      index_erase(find(*evicted));
      unlink(slot);
      --size_;
    } else {
      slot = allocate_slot();
    }
    slots_[slot].chunk = id;
    push_front(slot);
    index_insert(id, slot);
    ++size_;
    return evicted;
  }

  bool erase(ChunkId id) override {
    const std::uint32_t bucket = find(id);
    if (bucket == kNil) return false;
    const std::uint32_t slot = index_[bucket].slot;
    index_erase(bucket);
    unlink(slot);
    slots_[slot].next = free_;
    free_ = slot;
    --size_;
    return true;
  }

  std::size_t size() const override { return size_; }
  std::size_t capacity() const override { return capacity_; }
  PolicyKind kind() const override { return kind_; }

 private:
  static constexpr std::uint32_t kNil =
      std::numeric_limits<std::uint32_t>::max();
  // Caches up to this many chunks (the paper's hold 512) allocate both
  // arrays once, up front; growing them entry by entry in every cache
  // of a hierarchy at once scatters short-lived arrays through the heap.
  static constexpr std::size_t kInitialEntries = 1024;

  struct Slot {
    ChunkId chunk;
    std::uint32_t prev;
    std::uint32_t next;
  };
  /// One index entry; slot == kNil marks an empty bucket.
  struct Bucket {
    ChunkId chunk = 0;
    std::uint32_t slot = kNil;
  };

  /// Fibonacci hashing: dense chunk ids spread over the whole table.
  std::uint32_t home(ChunkId id) const {
    return static_cast<std::uint32_t>(
        (static_cast<std::uint64_t>(id) * 0x9E3779B97F4A7C15ull) >> shift_);
  }

  /// Bucket holding `id`, or kNil when it is not resident.
  std::uint32_t find(ChunkId id) const {
    for (std::uint32_t b = home(id);; b = (b + 1) & mask_) {
      const Bucket& bucket = index_[b];
      if (bucket.slot == kNil) return kNil;
      if (bucket.chunk == id) return b;
    }
  }

  void index_insert(ChunkId id, std::uint32_t slot) {
    // Keep the load factor at or below one half.
    if (2 * (size_ + 1) > index_.size()) resize_index(2 * index_.size());
    std::uint32_t b = home(id);
    while (index_[b].slot != kNil) b = (b + 1) & mask_;
    index_[b] = Bucket{id, slot};
  }

  /// Backward-shift deletion: pull later members of the probe chain
  /// into the hole so that no tombstones are needed.
  void index_erase(std::uint32_t hole) {
    for (std::uint32_t b = (hole + 1) & mask_; index_[b].slot != kNil;
         b = (b + 1) & mask_) {
      // An entry may move back into the hole only when its home bucket
      // does not lie cyclically in (hole, b].
      const std::uint32_t h = home(index_[b].chunk);
      if (((b - h) & mask_) >= ((b - hole) & mask_)) {
        index_[hole] = index_[b];
        hole = b;
      }
    }
    index_[hole] = Bucket{};
  }

  /// Rehashes into `buckets` (a power of two) buckets.
  void resize_index(std::size_t buckets) {
    MLSC_CHECK(buckets <= (std::size_t{1} << 32),
               "cache index outgrew 32-bit bucket ids");
    std::vector<Bucket> old(buckets);
    old.swap(index_);
    mask_ = static_cast<std::uint32_t>(buckets - 1);
    shift_ = 64 - static_cast<unsigned>(std::countr_zero(buckets));
    for (const Bucket& bucket : old) {
      if (bucket.slot == kNil) continue;
      std::uint32_t b = home(bucket.chunk);
      while (index_[b].slot != kNil) b = (b + 1) & mask_;
      index_[b] = bucket;
    }
  }

  std::uint32_t allocate_slot() {
    if (free_ != kNil) {
      const std::uint32_t slot = free_;
      free_ = slots_[slot].next;
      return slot;
    }
    if (slots_.size() == slots_.capacity()) {
      // Geometric growth, capped at the cache's capacity.
      slots_.reserve(std::min(capacity_, 2 * slots_.size()));
    }
    MLSC_CHECK(slots_.size() < kNil, "cache holds too many chunks");
    slots_.push_back(Slot{0, kNil, kNil});
    return static_cast<std::uint32_t>(slots_.size() - 1);
  }

  void unlink(std::uint32_t slot) {
    const Slot& s = slots_[slot];
    if (s.prev != kNil) {
      slots_[s.prev].next = s.next;
    } else {
      head_ = s.next;
    }
    if (s.next != kNil) {
      slots_[s.next].prev = s.prev;
    } else {
      tail_ = s.prev;
    }
  }

  void push_front(std::uint32_t slot) {
    slots_[slot].prev = kNil;
    slots_[slot].next = head_;
    if (head_ != kNil) {
      slots_[head_].prev = slot;
    } else {
      tail_ = slot;
    }
    head_ = slot;
  }

  std::size_t capacity_;
  bool move_on_hit_;
  PolicyKind kind_;
  std::size_t size_ = 0;
  std::vector<Slot> slots_;  // entries; head_ = most recently inserted/used
  std::uint32_t head_ = kNil;
  std::uint32_t tail_ = kNil;
  std::uint32_t free_ = kNil;  // free-slot chain through Slot::next
  std::vector<Bucket> index_;  // power-of-two size
  std::uint32_t mask_ = 0;
  unsigned shift_ = 64;  // 64 - log2(index_.size())
};

}  // namespace

std::unique_ptr<PolicyCore> make_lru_policy(std::size_t capacity) {
  return std::make_unique<ListPolicy>(capacity, /*move_on_hit=*/true,
                                      PolicyKind::kLru);
}

std::unique_ptr<PolicyCore> make_fifo_policy(std::size_t capacity) {
  return std::make_unique<ListPolicy>(capacity, /*move_on_hit=*/false,
                                      PolicyKind::kFifo);
}

}  // namespace mlsc::cache
