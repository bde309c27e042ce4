// Percentile arithmetic shared by obs::Histogram and percentile_of.
#pragma once

#include <cstddef>
#include <vector>

namespace mlsc {

/// Linear-interpolated percentile, p in [0, 100].
double percentile_of(std::vector<double> values, double p);

/// The fractional rank a percentile lands on in an ordered population of
/// `count` samples: rank = p/100 * (count - 1), split into the integer
/// index and the interpolation fraction toward index + 1.  The shared
/// definition behind percentile_of and obs::Histogram::quantile.
struct QuantileRank {
  std::size_t index = 0;
  double fraction = 0.0;

  double rank() const { return static_cast<double>(index) + fraction; }
};
QuantileRank quantile_rank(std::size_t count, double p);

/// Linear interpolation between lo and hi; frac in [0, 1].
double lerp(double lo, double hi, double frac);

}  // namespace mlsc
