#include "poly/iteration_space.h"

#include <algorithm>
#include <sstream>

#include "support/check.h"

namespace mlsc::poly {

IterationSpace::IterationSpace(std::vector<LoopBounds> bounds)
    : bounds_(std::move(bounds)) {
  size_ = bounds_.empty() ? 0 : 1;
  for (const auto& b : bounds_) {
    size_ *= static_cast<std::uint64_t>(b.extent());
  }
}

IterationSpace IterationSpace::from_extents(
    const std::vector<std::int64_t>& extents) {
  std::vector<LoopBounds> bounds;
  bounds.reserve(extents.size());
  for (std::int64_t e : extents) {
    MLSC_CHECK(e >= 0, "negative loop extent " << e);
    bounds.push_back(LoopBounds{0, e - 1});
  }
  return IterationSpace(std::move(bounds));
}

bool IterationSpace::contains(std::span<const std::int64_t> iter) const {
  if (iter.size() != bounds_.size()) return false;
  for (std::size_t k = 0; k < bounds_.size(); ++k) {
    if (iter[k] < bounds_[k].lower || iter[k] > bounds_[k].upper) return false;
  }
  return true;
}

std::uint64_t IterationSpace::linearize(
    std::span<const std::int64_t> iter) const {
  MLSC_DCHECK(contains(iter), "iteration outside space");
  std::uint64_t rank = 0;
  for (std::size_t k = 0; k < bounds_.size(); ++k) {
    rank = rank * static_cast<std::uint64_t>(bounds_[k].extent()) +
           static_cast<std::uint64_t>(iter[k] - bounds_[k].lower);
  }
  return rank;
}

Iteration IterationSpace::delinearize(std::uint64_t rank) const {
  MLSC_DCHECK(rank < size_, "rank " << rank << " out of " << size_);
  Iteration iter(bounds_.size());
  for (std::size_t k = bounds_.size(); k-- > 0;) {
    const auto extent = static_cast<std::uint64_t>(bounds_[k].extent());
    iter[k] = bounds_[k].lower + static_cast<std::int64_t>(rank % extent);
    rank /= extent;
  }
  return iter;
}

std::string IterationSpace::to_string() const {
  std::ostringstream out;
  out << "{";
  for (std::size_t k = 0; k < bounds_.size(); ++k) {
    if (k != 0) out << " && ";
    out << bounds_[k].lower << " <= i" << k << " <= " << bounds_[k].upper;
  }
  out << "}";
  return out.str();
}

std::vector<LinearRange> normalize_ranges(std::vector<LinearRange> ranges) {
  std::erase_if(ranges, [](const LinearRange& r) { return r.empty(); });
  std::sort(ranges.begin(), ranges.end(),
            [](const LinearRange& a, const LinearRange& b) {
              return a.begin < b.begin;
            });
  std::vector<LinearRange> out;
  for (const auto& r : ranges) {
    if (!out.empty() && r.begin <= out.back().end) {
      out.back().end = std::max(out.back().end, r.end);
    } else {
      out.push_back(r);
    }
  }
  return out;
}

std::uint64_t total_range_size(const std::vector<LinearRange>& ranges) {
  std::uint64_t total = 0;
  for (const auto& r : ranges) total += r.size();
  return total;
}

}  // namespace mlsc::poly
