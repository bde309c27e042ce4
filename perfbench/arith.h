// The benchmark's own arithmetic: order statistics for host timings and
// the paper-comparison ratios.  Header-only so the self-test links it
// without the library.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <stdexcept>
#include <vector>

namespace perfbench {

/// Nearest-rank percentile (1-based rank ceil(p/100 * n)) of an
/// ascending sample; p = 100 is the maximum.
inline double percentile_nearest_rank(const std::vector<double>& sorted,
                                      int p) {
  if (sorted.empty()) throw std::invalid_argument("empty sample");
  const auto n = static_cast<double>(sorted.size());
  auto rank = static_cast<std::size_t>(std::ceil(p / 100.0 * n));
  rank = std::clamp<std::size_t>(rank, 1, sorted.size());
  return sorted[rank - 1];
}

/// Samples strictly beyond the nearest-rank p-th percentile of n samples.
inline std::size_t samples_beyond(std::size_t n, int p) {
  const auto rank = static_cast<std::size_t>(
      std::ceil(p / 100.0 * static_cast<double>(n)));
  return n - std::min(rank, n);
}

/// The tail percentile a timing is reported at: the highest integer
/// percentile in [50, 99] with at least `min_beyond` samples beyond it.
/// Returns 100 (the maximum) when even the median leaves fewer than
/// `min_beyond` samples beyond it, i.e. for samples too small to have a
/// tail.
inline int tail_percentile(std::size_t n, std::size_t min_beyond = 10) {
  for (int p = 99; p >= 50; --p) {
    if (samples_beyond(n, p) >= min_beyond) return p;
  }
  return 100;
}

/// Median (mean of the two middle values for even sizes).
inline double median(std::vector<double> values) {
  if (values.empty()) throw std::invalid_argument("empty sample");
  std::sort(values.begin(), values.end());
  const std::size_t mid = values.size() / 2;
  if (values.size() % 2 == 1) return values[mid];
  return (values[mid - 1] + values[mid]) / 2.0;
}

/// Arithmetic mean of per-app ratios num[i] / den[i], the averaging the
/// Figure 11 bench uses for its "average" row (not a ratio of sums).
inline double mean_of_ratios(const std::vector<double>& num,
                             const std::vector<double>& den) {
  if (num.empty() || num.size() != den.size()) {
    throw std::invalid_argument("mismatched ratio vectors");
  }
  double sum = 0.0;
  for (std::size_t i = 0; i < num.size(); ++i) sum += num[i] / den[i];
  return sum / static_cast<double>(num.size());
}

/// Percentage-point distance between the improvement a normalized ratio
/// stands for, (1 - ratio) * 100, and the paper's reported improvement.
inline double gap_points(double ratio, double paper_improvement_pct) {
  return std::abs((1.0 - ratio) * 100.0 - paper_improvement_pct);
}

}  // namespace perfbench
