#include "support/stats.h"

#include <algorithm>

#include "support/check.h"

namespace mlsc {

QuantileRank quantile_rank(std::size_t count, double p) {
  MLSC_CHECK(count > 0, "quantile rank of an empty population");
  MLSC_CHECK(p >= 0.0 && p <= 100.0, "percentile out of range: " << p);
  const double rank = p / 100.0 * static_cast<double>(count - 1);
  QuantileRank out;
  out.index = std::min(static_cast<std::size_t>(rank), count - 1);
  out.fraction = rank - static_cast<double>(out.index);
  return out;
}

double lerp(double lo, double hi, double frac) {
  return lo * (1.0 - frac) + hi * frac;
}

double percentile_of(std::vector<double> values, double p) {
  MLSC_CHECK(!values.empty(), "percentile of empty vector");
  std::sort(values.begin(), values.end());
  const QuantileRank r = quantile_rank(values.size(), p);
  const std::size_t hi = std::min(r.index + 1, values.size() - 1);
  return lerp(values[r.index], values[hi], r.fraction);
}

}  // namespace mlsc
