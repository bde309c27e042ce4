#include "poly/affine.h"

#include <sstream>

#include "support/check.h"

namespace mlsc::poly {

AffineExpr::AffineExpr(std::vector<std::int64_t> coeffs, std::int64_t constant)
    : coeffs_(std::move(coeffs)), constant_(constant) {}

AffineExpr AffineExpr::constant(std::size_t depth, std::int64_t value) {
  return AffineExpr(std::vector<std::int64_t>(depth, 0), value);
}

AffineExpr AffineExpr::iterator(std::size_t depth, std::size_t k,
                                std::int64_t offset) {
  MLSC_CHECK(k < depth, "iterator index " << k << " out of depth " << depth);
  std::vector<std::int64_t> coeffs(depth, 0);
  coeffs[k] = 1;
  return AffineExpr(std::move(coeffs), offset);
}

std::int64_t AffineExpr::evaluate(std::span<const std::int64_t> iter) const {
  MLSC_DCHECK(iter.size() == coeffs_.size(),
              "iteration arity " << iter.size() << " != depth "
                                 << coeffs_.size());
  std::int64_t value = constant_;
  for (std::size_t k = 0; k < coeffs_.size(); ++k) {
    value += coeffs_[k] * iter[k];
  }
  return value;
}

bool AffineExpr::is_constant() const {
  for (std::int64_t c : coeffs_) {
    if (c != 0) return false;
  }
  return true;
}

AffineExpr AffineExpr::operator+(const AffineExpr& other) const {
  MLSC_CHECK(depth() == other.depth(), "depth mismatch in affine addition");
  std::vector<std::int64_t> coeffs(coeffs_);
  for (std::size_t k = 0; k < coeffs.size(); ++k) coeffs[k] += other.coeffs_[k];
  return AffineExpr(std::move(coeffs), constant_ + other.constant_);
}

AffineExpr AffineExpr::operator-(const AffineExpr& other) const {
  MLSC_CHECK(depth() == other.depth(), "depth mismatch in affine subtraction");
  std::vector<std::int64_t> coeffs(coeffs_);
  for (std::size_t k = 0; k < coeffs.size(); ++k) coeffs[k] -= other.coeffs_[k];
  return AffineExpr(std::move(coeffs), constant_ - other.constant_);
}

std::string AffineExpr::to_string() const {
  std::ostringstream out;
  bool first = true;
  for (std::size_t k = 0; k < coeffs_.size(); ++k) {
    const std::int64_t c = coeffs_[k];
    if (c == 0) continue;
    if (!first) out << (c > 0 ? " + " : " - ");
    if (first && c < 0) out << "-";
    const std::int64_t mag = c < 0 ? -c : c;
    if (mag != 1) out << mag << "*";
    out << "i" << k;
    first = false;
  }
  if (first) {
    out << constant_;
  } else if (constant_ > 0) {
    out << " + " << constant_;
  } else if (constant_ < 0) {
    out << " - " << -constant_;
  }
  return out.str();
}

AccessMap::AccessMap(std::vector<AffineExpr> exprs) : exprs_(std::move(exprs)) {
  for (const auto& e : exprs_) {
    MLSC_CHECK(e.depth() == exprs_[0].depth(),
               "all access-map rows must share the nest depth");
  }
}

AccessMap AccessMap::from_matrix(
    const std::vector<std::vector<std::int64_t>>& access_matrix,
    const std::vector<std::int64_t>& offset) {
  MLSC_CHECK(access_matrix.size() == offset.size(),
             "access matrix rows " << access_matrix.size()
                                   << " != offset arity " << offset.size());
  std::vector<AffineExpr> exprs;
  exprs.reserve(access_matrix.size());
  for (std::size_t r = 0; r < access_matrix.size(); ++r) {
    exprs.emplace_back(access_matrix[r], offset[r]);
  }
  return AccessMap(std::move(exprs));
}

AccessMap AccessMap::identity(std::size_t depth,
                              std::vector<std::int64_t> offsets) {
  MLSC_CHECK(offsets.size() <= depth,
             "identity map rank exceeds nest depth");
  std::vector<AffineExpr> exprs;
  exprs.reserve(offsets.size());
  for (std::size_t d = 0; d < offsets.size(); ++d) {
    exprs.push_back(AffineExpr::iterator(depth, d, offsets[d]));
  }
  return AccessMap(std::move(exprs));
}

std::vector<std::int64_t> AccessMap::apply(
    std::span<const std::int64_t> iter) const {
  std::vector<std::int64_t> out;
  out.reserve(exprs_.size());
  for (const auto& e : exprs_) out.push_back(e.evaluate(iter));
  return out;
}

std::int64_t AccessMap::apply_dim(std::size_t d,
                                  std::span<const std::int64_t> iter) const {
  MLSC_DCHECK(d < exprs_.size(), "dimension out of range");
  return exprs_[d].evaluate(iter);
}

bool AccessMap::same_linear_part(const AccessMap& other) const {
  if (rank() != other.rank() || depth() != other.depth()) return false;
  for (std::size_t d = 0; d < rank(); ++d) {
    for (std::size_t k = 0; k < depth(); ++k) {
      if (exprs_[d].coeff(k) != other.exprs_[d].coeff(k)) return false;
    }
  }
  return true;
}

std::string AccessMap::to_string() const {
  std::ostringstream out;
  out << "[";
  for (std::size_t d = 0; d < exprs_.size(); ++d) {
    if (d != 0) out << ", ";
    out << exprs_[d].to_string();
  }
  out << "]";
  return out.str();
}

}  // namespace mlsc::poly
