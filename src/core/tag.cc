#include "core/tag.h"

#include <algorithm>

#include "support/check.h"

namespace mlsc::core {

ChunkTag ChunkTag::from_bits(std::vector<std::uint32_t> bits) {
  std::sort(bits.begin(), bits.end());
  bits.erase(std::unique(bits.begin(), bits.end()), bits.end());
  ChunkTag tag;
  tag.bits_ = std::move(bits);
  return tag;
}

bool ChunkTag::test(std::uint32_t pos) const {
  return std::binary_search(bits_.begin(), bits_.end(), pos);
}

std::size_t ChunkTag::common_bits(const ChunkTag& other) const {
  // Skewed sizes: galloping search of the small side into the large one,
  // O(|small| log |large|) instead of O(|small| + |large|).
  const std::vector<std::uint32_t>* small = &bits_;
  const std::vector<std::uint32_t>* large = &other.bits_;
  if (small->size() > large->size()) std::swap(small, large);
  if (small->empty()) return 0;
  if (large->size() / small->size() >= 8) {
    std::size_t count = 0;
    auto from = large->begin();
    for (std::uint32_t bit : *small) {
      from = std::lower_bound(from, large->end(), bit);
      if (from == large->end()) break;
      if (*from == bit) {
        ++count;
        ++from;
      }
    }
    return count;
  }

  std::size_t count = 0;
  auto a = bits_.begin();
  auto b = other.bits_.begin();
  while (a != bits_.end() && b != other.bits_.end()) {
    if (*a < *b) {
      ++a;
    } else if (*b < *a) {
      ++b;
    } else {
      ++count;
      ++a;
      ++b;
    }
  }
  return count;
}

ChunkTag ChunkTag::merged_with(const ChunkTag& other) const {
  std::vector<std::uint32_t> merged;
  merged.reserve(bits_.size() + other.bits_.size());
  std::merge(bits_.begin(), bits_.end(), other.bits_.begin(),
             other.bits_.end(), std::back_inserter(merged));
  merged.erase(std::unique(merged.begin(), merged.end()), merged.end());
  ChunkTag tag;
  tag.bits_ = std::move(merged);
  return tag;
}

std::size_t ChunkTag::hash() const {
  std::uint64_t h = 1469598103934665603ull;
  for (std::uint32_t b : bits_) {
    h ^= b;
    h *= 1099511628211ull;
  }
  return static_cast<std::size_t>(h);
}

std::string ChunkTag::to_string(std::size_t r) const {
  std::string out(r, '0');
  for (std::uint32_t b : bits_) {
    MLSC_CHECK(b < r, "tag bit " << b << " outside width " << r);
    out[b] = '1';
  }
  return out;
}

void ClusterTag::add(const ChunkTag& tag) {
  std::vector<Entry> merged;
  merged.reserve(entries_.size() + tag.bits().size());
  auto e = entries_.begin();
  auto b = tag.bits().begin();
  while (e != entries_.end() || b != tag.bits().end()) {
    if (b == tag.bits().end() || (e != entries_.end() && e->pos < *b)) {
      merged.push_back(*e++);
    } else if (e == entries_.end() || *b < e->pos) {
      merged.push_back(Entry{*b++, 1});
    } else {
      merged.push_back(Entry{e->pos, e->count + 1});
      ++e;
      ++b;
    }
  }
  entries_ = std::move(merged);
}

void ClusterTag::add(const ClusterTag& other) {
  std::vector<Entry> merged;
  merged.reserve(entries_.size() + other.entries_.size());
  auto a = entries_.begin();
  auto b = other.entries_.begin();
  while (a != entries_.end() || b != other.entries_.end()) {
    if (b == other.entries_.end() ||
        (a != entries_.end() && a->pos < b->pos)) {
      merged.push_back(*a++);
    } else if (a == entries_.end() || b->pos < a->pos) {
      merged.push_back(*b++);
    } else {
      merged.push_back(Entry{a->pos, a->count + b->count});
      ++a;
      ++b;
    }
  }
  entries_ = std::move(merged);
}

void ClusterTag::remove(const ChunkTag& tag) {
  auto e = entries_.begin();
  for (std::uint32_t b : tag.bits()) {
    while (e != entries_.end() && e->pos < b) ++e;
    MLSC_CHECK(e != entries_.end() && e->pos == b && e->count > 0,
               "removing tag bit " << b << " not present in cluster tag");
    --e->count;
  }
  std::erase_if(entries_, [](const Entry& entry) { return entry.count == 0; });
}

std::uint64_t ClusterTag::dot(const ClusterTag& other) const {
  std::uint64_t total = 0;
  auto a = entries_.begin();
  auto b = other.entries_.begin();
  while (a != entries_.end() && b != other.entries_.end()) {
    if (a->pos < b->pos) {
      ++a;
    } else if (b->pos < a->pos) {
      ++b;
    } else {
      total += static_cast<std::uint64_t>(a->count) * b->count;
      ++a;
      ++b;
    }
  }
  return total;
}

std::vector<std::uint32_t> ClusterTag::positions() const {
  std::vector<std::uint32_t> out;
  out.reserve(entries_.size());
  for (const auto& e : entries_) out.push_back(e.pos);
  return out;
}

std::uint64_t ClusterTag::count_at(std::uint32_t pos) const {
  auto it = std::lower_bound(
      entries_.begin(), entries_.end(), pos,
      [](const Entry& e, std::uint32_t p) { return e.pos < p; });
  if (it == entries_.end() || it->pos != pos) return 0;
  return it->count;
}

}  // namespace mlsc::core
