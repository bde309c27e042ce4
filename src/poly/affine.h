// Affine expressions and maps over loop iterators.
//
// An array reference R(i) = Q*i + q (paper §2) is modelled as an
// AccessMap: one AffineExpr per array dimension.  This is the part of the
// Omega library's functionality the mapping algorithm actually needs.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

namespace mlsc::poly {

/// A loop iteration: the value of each iterator, outermost first.
using Iteration = std::vector<std::int64_t>;

/// c0 + c1*i1 + c2*i2 + ... over the iterators of an n-deep nest.
class AffineExpr {
 public:
  AffineExpr() = default;

  /// coeffs[k] multiplies iterator k (outermost first).
  AffineExpr(std::vector<std::int64_t> coeffs, std::int64_t constant);

  /// The expression `constant` over a nest of `depth` iterators.
  static AffineExpr constant(std::size_t depth, std::int64_t value);

  /// The expression `i_k + offset` over a nest of `depth` iterators.
  static AffineExpr iterator(std::size_t depth, std::size_t k,
                             std::int64_t offset = 0);

  std::size_t depth() const { return coeffs_.size(); }
  std::int64_t coeff(std::size_t k) const { return coeffs_[k]; }
  std::int64_t constant_term() const { return constant_; }

  std::int64_t evaluate(std::span<const std::int64_t> iter) const;

  /// True when the expression ignores all iterators.
  bool is_constant() const;

  AffineExpr operator+(const AffineExpr& other) const;
  AffineExpr operator-(const AffineExpr& other) const;
  bool operator==(const AffineExpr& other) const = default;

  /// Human-readable rendering, e.g. "i0 + 2*i2 - 1".
  std::string to_string() const;

 private:
  std::vector<std::int64_t> coeffs_;
  std::int64_t constant_ = 0;
};

/// R(i) = Q*i + q: one affine expression per target (array) dimension.
class AccessMap {
 public:
  AccessMap() = default;
  explicit AccessMap(std::vector<AffineExpr> exprs);

  /// Builds from explicit access matrix Q (rows x depth) and offset q.
  static AccessMap from_matrix(
      const std::vector<std::vector<std::int64_t>>& access_matrix,
      const std::vector<std::int64_t>& offset);

  /// Identity map of the given rank with per-dimension offsets,
  /// e.g. A[i1+3, i2-1] (the paper's §2 example).
  static AccessMap identity(std::size_t depth,
                            std::vector<std::int64_t> offsets);

  std::size_t rank() const { return exprs_.size(); }
  std::size_t depth() const {
    return exprs_.empty() ? 0 : exprs_[0].depth();
  }
  const AffineExpr& expr(std::size_t d) const { return exprs_[d]; }

  /// Maps an iteration to an array index vector.
  std::vector<std::int64_t> apply(std::span<const std::int64_t> iter) const;

  /// Evaluates only dimension `d` of the map.
  std::int64_t apply_dim(std::size_t d,
                         std::span<const std::int64_t> iter) const;

  bool operator==(const AccessMap& other) const = default;

  /// True when both maps have identical access matrices (same Q); such
  /// pairs produce uniform dependences with a constant distance vector.
  bool same_linear_part(const AccessMap& other) const;

  std::string to_string() const;

 private:
  std::vector<AffineExpr> exprs_;
};

}  // namespace mlsc::poly
