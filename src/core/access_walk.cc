#include "core/access_walk.h"

#include <algorithm>

#include "support/check.h"

namespace mlsc::core {

AccessWalk::AccessWalk(const poly::Program& program, const DataSpace& space,
                       const poly::LoopNest& nest,
                       const poly::IterationOrder& order,
                       std::span<const poly::LinearRange> ranges)
    : space_(space),
      ranges_(ranges),
      // An identity order may carry no loops at all (the inter mapper's
      // items); it means the nest's lexicographic order.
      walker_(nest.space,
              order.is_identity() ? poly::IterationOrder::identity(nest.depth())
                                  : order,
              nest.space.size()) {
  const std::uint64_t size = nest.space.size();
  for (const poly::LinearRange& range : ranges_) {
    MLSC_CHECK(range.begin <= range.end && range.end <= size,
               "range [" << range.begin << ", " << range.end
                         << ") outside nest " << nest.name << " of size "
                         << size);
  }
  // A direct reference's flat element is the row-major sum over dims of
  // index_d * stride_d, and each index_d is affine in the iteration, so
  // the element is too; an indirect reference's table position is its
  // rank-1 map itself.
  const std::size_t depth = nest.depth();
  inner_ = order.is_identity() ? depth - 1 : order.permutation.back();
  const std::size_t n = nest.refs.size();
  refs_.resize(n);
  coeffs_.assign(depth * n, 0);
  for (std::size_t r = 0; r < n; ++r) {
    const poly::ArrayRef& ref = nest.refs[r];
    Ref& out = refs_[r];
    out.array = ref.array;
    out.element_size = program.array(ref.array).element_size_bytes;
    out.is_write = ref.is_write;
    if (ref.is_indirect()) {
      MLSC_CHECK(ref.map.rank() == 1, "indirect references use a rank-1 map");
      out.table = program.index_table(ref.index_table).values.data();
      out.base = ref.map.expr(0).constant_term();
      for (std::size_t k = 0; k < depth; ++k) {
        coeffs_[k * n + r] = ref.map.expr(0).coeff(k);
      }
      continue;
    }
    const poly::ArrayDecl& array = program.array(ref.array);
    MLSC_CHECK(ref.map.rank() == array.dims.size(),
               "index arity " << ref.map.rank() << " != rank "
                              << array.dims.size() << " of array "
                              << array.name);
    std::int64_t stride = 1;
    for (std::size_t d = ref.map.rank(); d-- > 0;) {
      const poly::AffineExpr& expr = ref.map.expr(d);
      out.base += expr.constant_term() * stride;
      for (std::size_t k = 0; k < depth; ++k) {
        coeffs_[k * n + r] += expr.coeff(k) * stride;
      }
      stride *= array.dims[d];
    }
  }
  values_.resize(n);
  accesses_.reserve(n);
  open_range(0);
}

void AccessWalk::open_range(std::size_t range) {
  range_ = range;
  while (range_ < ranges_.size() &&
         ranges_[range_].begin == ranges_[range_].end) {
    ++range_;
  }
  fresh_ = true;
}

void AccessWalk::end_visit() {
  if (walker_.position() + 1 == ranges_[range_].end) open_range(range_ + 1);
}

void AccessWalk::start_range() {
  walker_.seek(ranges_[range_].begin);
  at_ = walker_.current();
  const std::size_t n = refs_.size();
  for (std::size_t r = 0; r < n; ++r) {
    std::int64_t value = refs_[r].base;
    for (std::size_t k = 0; k < at_.size(); ++k) {
      value += coeffs_[k * n + r] * at_[k];
    }
    values_[r] = value;
  }
}

void AccessWalk::step_in_row(std::uint64_t count) {
  walker_.skip_in_row(count);
  const auto steps = static_cast<std::int64_t>(count);
  at_[inner_] += steps;
  const std::size_t n = refs_.size();
  const std::int64_t* coeff = &coeffs_[inner_ * n];
  for (std::size_t r = 0; r < n; ++r) values_[r] += coeff[r] * steps;
}

std::span<const ChunkAccess> AccessWalk::next() {
  MLSC_DCHECK(!done(), "next() past the end of the walk");
  const std::size_t n = refs_.size();
  if (fresh_) {
    start_range();
    fresh_ = false;
  } else if (walker_.row_remaining() > 0) {
    step_in_row(1);
  } else {
    walker_.next();
    const poly::Iteration& iter = walker_.current();
    for (std::size_t k = 0; k < at_.size(); ++k) {
      const std::int64_t step = iter[k] - at_[k];
      if (step == 0) continue;
      at_[k] = iter[k];
      const std::int64_t* coeff = &coeffs_[k * n];
      for (std::size_t r = 0; r < n; ++r) values_[r] += coeff[r] * step;
    }
  }

  accesses_.clear();
  for (std::size_t r = 0; r < n; ++r) {
    const Ref& ref = refs_[r];
    const std::int64_t value = values_[r];
    const std::int64_t flat = ref.table == nullptr ? value : ref.table[value];
    MLSC_DCHECK(flat >= 0, "reference resolved to a negative element");
    const auto span =
        space_.element_chunks(ref.array, static_cast<std::uint64_t>(flat));
    // Checked before the span is expanded, so a bad span cannot flood
    // the buffer.
    MLSC_CHECK(span.last - span.first < 255 - accesses_.size(),
               "iteration touches more than 255 chunks");
    for (ChunkId c = span.first; c <= span.last; ++c) {
      accesses_.push_back(ChunkAccess{c, ref.is_write});
    }
  }
  end_visit();
  return accesses_;
}

std::uint64_t AccessWalk::repeats() const {
  if (done() || fresh_) return 0;  // the last next() ended its range
  std::uint64_t count = std::min(walker_.row_remaining(),
                                 ranges_[range_].end - 1 - walker_.position());
  // A one-iteration row never steps, so its coefficient, which the array
  // bounds do not constrain, is never read.
  if (count == 0) return 0;
  const std::uint64_t chunk = space_.chunk_size_bytes();
  const std::size_t n = refs_.size();
  const std::int64_t* coeff = &coeffs_[inner_ * n];
  for (std::size_t r = 0; r < n && count > 0; ++r) {
    const std::int64_t stride = coeff[r];
    if (stride == 0) continue;
    const Ref& ref = refs_[r];
    if (ref.table != nullptr) return 0;
    // Arrays start on chunk boundaries.  Each of the element's first and
    // last bytes may move up to its chunk's edge in the direction of
    // travel.
    const std::uint64_t first =
        static_cast<std::uint64_t>(values_[r]) * ref.element_size;
    const std::uint64_t last = first + ref.element_size - 1;
    const std::uint64_t step =
        static_cast<std::uint64_t>(stride > 0 ? stride : -stride) *
        ref.element_size;
    const std::uint64_t room =
        stride > 0 ? std::min(chunk - 1 - first % chunk,
                              chunk - 1 - last % chunk)
                   : std::min(first % chunk, last % chunk);
    count = std::min(count, room / step);
  }
  return count;
}

void AccessWalk::skip(std::uint64_t count) {
  if (count == 0) return;
  MLSC_DCHECK(count <= repeats(), "skip past the repeats of an iteration");
  step_in_row(count);
  end_visit();
}

}  // namespace mlsc::core
