#include "poly/dependence.h"

#include <numeric>
#include <sstream>

#include "support/check.h"

namespace mlsc::poly {
namespace {

/// Tests one dimension of a reference pair with the GCD test:
/// sum(a_k * x_k) = c has integer solutions iff gcd(a_k) divides c.
/// Returns false when the dimension proves independence.
bool gcd_dim_may_depend(const AffineExpr& src, const AffineExpr& dst) {
  // src(sigma1) == dst(sigma2): treat sigma1 and sigma2 as independent
  // unknowns: sum(src.coeff * s_k) - sum(dst.coeff * t_k) = dst.c - src.c.
  std::int64_t g = 0;
  for (std::size_t k = 0; k < src.depth(); ++k) {
    g = std::gcd(g, src.coeff(k));
    g = std::gcd(g, dst.coeff(k));
  }
  const std::int64_t c = dst.constant_term() - src.constant_term();
  if (g == 0) return c == 0;
  return c % g == 0;
}

/// Computes a constant distance vector for a uniform pair (same linear
/// part).  Returns nullopt when the offsets are inconsistent (no
/// dependence) and marks loops whose distance is undetermined with "*".
std::optional<Distance> uniform_distance(const LoopNest& nest,
                                         const AccessMap& src,
                                         const AccessMap& dst) {
  const std::size_t depth = nest.depth();
  Distance dist(depth, std::nullopt);
  std::vector<bool> determined(depth, false);

  for (std::size_t d = 0; d < src.rank(); ++d) {
    const AffineExpr& e = src.expr(d);
    const std::int64_t delta =
        e.constant_term() - dst.expr(d).constant_term();
    if (e.is_constant()) {
      if (delta != 0) return std::nullopt;  // e.g. A[3] vs A[4]
      continue;
    }
    // Count the iterators this subscript couples.
    std::size_t nonzero = 0;
    std::size_t k = 0;
    for (std::size_t j = 0; j < depth; ++j) {
      if (e.coeff(j) != 0) {
        ++nonzero;
        k = j;
      }
    }
    if (nonzero == 1) {
      // c*(t_k - s_k) = src.c - dst.c  (solve for sink minus source);
      // a remainder means the strided accesses can never meet.
      const std::int64_t c = e.coeff(k);
      if (delta % c != 0) return std::nullopt;
      const std::int64_t value = delta / c;
      if (determined[k] && dist[k] != std::optional<std::int64_t>{value}) {
        return std::nullopt;  // inconsistent system
      }
      dist[k] = value;
      determined[k] = true;
      continue;
    }
    // Coupled subscript: fall back to "unknown" for its iterators.
    for (std::size_t j = 0; j < depth; ++j) {
      if (e.coeff(j) != 0 && !determined[j]) dist[j] = std::nullopt;
    }
  }

  // Loops not constrained by any subscript can take any distance; within
  // the same nest instance the canonical representative is 0 only if the
  // loop indexes nothing — conservatively leave them "*".  A distance
  // that is all-zero-or-star with at least one star still blocks
  // parallelization of the starred loops, which is the safe answer.
  return dist;
}

}  // namespace

std::optional<std::size_t> Dependence::carried_level() const {
  for (std::size_t k = 0; k < distance.size(); ++k) {
    if (!distance[k].has_value() || *distance[k] != 0) return k;
  }
  return std::nullopt;
}

std::string Dependence::to_string() const {
  std::ostringstream out;
  out << "ref" << src_ref << " -> ref" << dst_ref << " (";
  for (std::size_t k = 0; k < distance.size(); ++k) {
    if (k != 0) out << ", ";
    if (distance[k].has_value()) {
      out << *distance[k];
    } else {
      out << "*";
    }
  }
  out << ")";
  return out.str();
}

std::vector<Dependence> find_dependences(const LoopNest& nest) {
  std::vector<Dependence> deps;
  for (std::size_t a = 0; a < nest.refs.size(); ++a) {
    for (std::size_t b = 0; b < nest.refs.size(); ++b) {
      const ArrayRef& src = nest.refs[a];
      const ArrayRef& dst = nest.refs[b];
      if (src.array != dst.array) continue;
      if (!src.is_write && !dst.is_write) continue;
      if (a == b && !src.is_write) continue;

      // Indirect (gather/scatter) references have runtime-dependent
      // targets: any pair with a write is a conservative "*" dependence.
      if (src.is_indirect() || dst.is_indirect()) {
        if (a == b) continue;
        deps.push_back(
            Dependence{a, b, Distance(nest.depth(), std::nullopt)});
        continue;
      }

      if (src.map.same_linear_part(dst.map)) {
        if (a == b) continue;  // identical access: no cross-iteration dep
        auto dist = uniform_distance(nest, src.map, dst.map);
        if (!dist.has_value()) continue;
        // Skip the all-zero self-style distance for identical maps.
        bool all_zero = true;
        for (const auto& d : *dist) {
          if (!d.has_value() || *d != 0) {
            all_zero = false;
            break;
          }
        }
        if (all_zero && src.map == dst.map) continue;
        deps.push_back(Dependence{a, b, std::move(*dist)});
        continue;
      }

      // Non-uniform pair: GCD screen each dimension, then report an
      // all-unknown distance if the screen cannot disprove it.
      bool may_depend = true;
      for (std::size_t d = 0; d < src.map.rank() && may_depend; ++d) {
        may_depend = gcd_dim_may_depend(src.map.expr(d), dst.map.expr(d));
      }
      if (may_depend) {
        deps.push_back(
            Dependence{a, b, Distance(nest.depth(), std::nullopt)});
      }
    }
  }
  return deps;
}

}  // namespace mlsc::poly
