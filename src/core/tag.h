// Iteration-chunk tags and cluster tags (paper §4.2 and Fig. 5).
//
// A ChunkTag is the r-bit tag Λ = λ0 λ1 ... λr-1 describing which data
// chunks an iteration (chunk) accesses.  Tags are stored sparsely — a
// sorted vector of set-bit positions — because each iteration touches a
// handful of the 10^4..10^5 data chunks.
//
// A ClusterTag is the "bitwise sum" of member tags: a per-data-chunk
// access count vector.  The dot product of two cluster tags quantifies
// the degree of data chunk sharing between two clusters and drives the
// greedy merge in the clustering stage.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace mlsc::core {

class ClusterTag;

class ChunkTag {
 public:
  ChunkTag() = default;

  /// Takes a list of set-bit positions; sorted and deduplicated here.
  static ChunkTag from_bits(std::vector<std::uint32_t> bits);

  const std::vector<std::uint32_t>& bits() const { return bits_; }

  /// Number of 1 bits (data chunks accessed).
  std::size_t popcount() const { return bits_.size(); }
  bool empty() const { return bits_.empty(); }

  bool test(std::uint32_t pos) const;

  /// Number of common 1 bits, popcount(Λa ∧ Λb) — the similarity-graph
  /// edge weight and (since tags are 0/1 vectors) also the tag dot
  /// product used by the scheduler.
  std::size_t common_bits(const ChunkTag& other) const;

  /// Number of differing positions.  Zero shared bits means the chunks
  /// share no data; small Hamming distance means similar access patterns.
  std::size_t hamming_distance(const ChunkTag& other) const;

  /// Union of the two tags (used when coarsening the chunk table).
  ChunkTag merged_with(const ChunkTag& other) const;

  bool operator==(const ChunkTag& other) const = default;
  std::size_t hash() const;

  /// Dense rendering "1010..." of width r, matching Fig. 8's notation.
  std::string to_string(std::size_t r) const;

 private:
  std::vector<std::uint32_t> bits_;  // sorted, unique
};

struct ChunkTagHash {
  std::size_t operator()(const ChunkTag& tag) const { return tag.hash(); }
};

class ClusterTag {
 public:
  struct Entry {
    std::uint32_t pos;
    std::uint32_t count;
  };

  ClusterTag() = default;

  void add(const ChunkTag& tag);
  void add(const ClusterTag& other);
  /// Removes a member tag's contribution; counts must not go negative.
  void remove(const ChunkTag& tag);

  /// Σ_k count_a[k] * count_b[k] — the clustering merge criterion.
  std::uint64_t dot(const ClusterTag& other) const;

  bool empty() const { return entries_.empty(); }
  std::size_t distinct_chunks() const { return entries_.size(); }
  std::uint64_t count_at(std::uint32_t pos) const;

  /// The distinct data chunks this cluster touches, in increasing order.
  std::vector<std::uint32_t> positions() const;

  /// (pos, count) pairs sorted by pos.
  const std::vector<Entry>& entries() const { return entries_; }

 private:
  std::vector<Entry> entries_;  // sorted by pos
};

}  // namespace mlsc::core
