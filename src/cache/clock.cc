// CLOCK (second-chance) policy core: a circular buffer of frames with
// reference bits; the hand sweeps past referenced frames, clearing them.
//
// Frames are created on demand, so memory follows the resident count
// rather than the capacity.  A fill takes the lowest-index free frame (a
// min-heap of erased frames, else a new frame at the end): the same frame
// a scan from frame 0 would find, so the hand meets the same victims.
#include <functional>
#include <queue>
#include <unordered_map>
#include <vector>

#include "cache/policy.h"
#include "support/check.h"

namespace mlsc::cache {
namespace {

class ClockPolicy : public PolicyCore {
 public:
  explicit ClockPolicy(std::size_t capacity) : capacity_(capacity) {
    MLSC_CHECK(capacity > 0, "cache capacity must be positive");
  }

  bool contains(ChunkId id) const override { return index_.count(id) != 0; }

  bool touch(ChunkId id) override {
    auto it = index_.find(id);
    if (it == index_.end()) return false;
    frames_[it->second].referenced = true;
    return true;
  }

  std::optional<ChunkId> insert(ChunkId id) override {
    if (touch(id)) return std::nullopt;
    if (size_ < capacity_) {
      // Fill the lowest-index empty frame.
      std::size_t frame = frames_.size();
      if (!free_frames_.empty()) {
        frame = free_frames_.top();
        free_frames_.pop();
      } else {
        frames_.emplace_back();
      }
      place(frame, id);
      ++size_;
      return std::nullopt;
    }
    // Sweep the hand until an unreferenced frame is found.
    while (frames_[hand_].referenced) {
      frames_[hand_].referenced = false;
      hand_ = (hand_ + 1) % frames_.size();
    }
    const ChunkId victim = frames_[hand_].chunk;
    index_.erase(victim);
    place(hand_, id);
    hand_ = (hand_ + 1) % frames_.size();
    return victim;
  }

  bool erase(ChunkId id) override {
    auto it = index_.find(id);
    if (it == index_.end()) return false;
    free_frames_.push(it->second);
    index_.erase(it);
    --size_;
    return true;
  }

  std::size_t size() const override { return size_; }
  std::size_t capacity() const override { return capacity_; }
  PolicyKind kind() const override { return PolicyKind::kClock; }

 private:
  struct Frame {
    ChunkId chunk = 0;
    bool referenced = false;
  };

  void place(std::size_t frame, ChunkId id) {
    frames_[frame] = Frame{id, /*referenced=*/true};
    index_[id] = frame;
  }

  std::size_t capacity_;
  std::vector<Frame> frames_;  // grows to capacity_ as chunks arrive
  /// Erased frames below frames_.size(), smallest on top.
  std::priority_queue<std::size_t, std::vector<std::size_t>,
                      std::greater<std::size_t>>
      free_frames_;
  std::unordered_map<ChunkId, std::size_t> index_;
  std::size_t hand_ = 0;
  std::size_t size_ = 0;
};

}  // namespace

std::unique_ptr<PolicyCore> make_clock_policy(std::size_t capacity) {
  return std::make_unique<ClockPolicy>(capacity);
}

}  // namespace mlsc::cache
