#include "core/tagging.h"

#include <algorithm>
#include <limits>
#include <numeric>

#include "obs/metrics.h"
#include "obs/trace.h"
#include "support/check.h"

namespace mlsc::core {
namespace {

/// Hash-consed footprints.  Every distinct tag's bits live once in one
/// flat arena, addressed by (offset, len); the open-addressing index
/// holds tag ids and compares arena spans, so no tag is ever copied to
/// serve as a map key.  Ids are assigned in first-intern order.
class TagTable {
 public:
  std::size_t size() const { return spans_.size(); }

  std::span<const std::uint32_t> bits(std::uint32_t id) const {
    const Entry& e = spans_[id];
    return {arena_.data() + e.offset, e.len};
  }

  /// Id of `bits` (sorted, unique), added when new.
  std::uint32_t intern(std::span<const std::uint32_t> bits) {
    if (2 * (spans_.size() - index_base_ + 1) > slots_.size()) grow();
    const std::uint32_t h = hash(bits);
    const std::size_t mask = slots_.size() - 1;
    for (std::size_t s = h & mask;; s = (s + 1) & mask) {
      const std::uint32_t slot = slots_[s];
      if (slot == 0) break;
      const Entry& e = spans_[slot - 1];
      if (e.hash == h && std::ranges::equal(this->bits(slot - 1), bits)) {
        return slot - 1;
      }
    }
    const auto id = static_cast<std::uint32_t>(spans_.size());
    spans_.push_back(Entry{arena_.size(),
                           static_cast<std::uint32_t>(bits.size()), h});
    arena_.insert(arena_.end(), bits.begin(), bits.end());
    place(id);
    return id;
  }

  /// Forgets the index but keeps every id and its bits: tags interned
  /// after this never fold into ids interned before it (chunks of one
  /// nest never absorb iterations of another).
  void reset_index() {
    std::fill(slots_.begin(), slots_.end(), 0u);
    index_base_ = spans_.size();
  }

 private:
  struct Entry {
    std::size_t offset;
    std::uint32_t len;
    std::uint32_t hash;
  };

  static std::uint32_t hash(std::span<const std::uint32_t> bits) {
    std::uint64_t h = 0x9E3779B97F4A7C15ull ^ bits.size();
    for (std::uint32_t b : bits) {
      h = (h ^ b) * 0xBF58476D1CE4E5B9ull;
      h ^= h >> 31;
    }
    return static_cast<std::uint32_t>(h ^ (h >> 32));
  }

  void place(std::uint32_t id) {
    const std::size_t mask = slots_.size() - 1;
    std::size_t s = spans_[id].hash & mask;
    while (slots_[s] != 0) s = (s + 1) & mask;
    slots_[s] = id + 1;
  }

  void grow() {
    slots_.assign(std::max<std::size_t>(64, 2 * slots_.size()), 0u);
    for (std::size_t id = index_base_; id < spans_.size(); ++id) {
      place(static_cast<std::uint32_t>(id));
    }
  }

  std::vector<std::uint32_t> arena_;
  std::vector<Entry> spans_;
  std::vector<std::uint32_t> slots_;  // id + 1; 0 = empty; power of two
  std::size_t index_base_ = 0;        // first id the index holds
};

/// A maximal range [begin, end) of consecutive ranks with one tag — the
/// run-length encoding of the per-iteration tag sequence.  RLE is
/// canonical, so any block decomposition that stitches equal tags across
/// block boundaries reconstructs exactly the runs a serial walk would
/// produce; this is what makes parallel tagging bit-identical to serial.
struct TagRun {
  std::uint32_t tag = 0;  // TagTable id
  std::uint64_t begin = 0;
  std::uint64_t end = 0;
};

/// One reference as the walk sees it.  A direct reference's flat element
/// moves by a constant `stride` per innermost step (the sum over dims of
/// the innermost coefficient times the dim's row-major stride), so its
/// chunk span stays put for a number of steps one division predicts.
struct RefWalk {
  const poly::ArrayRef* ref = nullptr;
  std::uint64_t element_size = 0;
  std::int64_t stride = 0;
  std::uint64_t flat = 0;  // current element (direct references)
};

std::vector<RefWalk> plan_refs(const poly::Program& program,
                               const poly::LoopNest& nest) {
  const std::size_t inner = nest.depth() - 1;
  // A one-iteration innermost loop never steps; its coefficient is then
  // unconstrained by the array bounds, so it is not folded into a stride.
  const bool steps = nest.space.loop(inner).extent() > 1;
  std::vector<RefWalk> refs;
  refs.reserve(nest.refs.size());
  for (const auto& ref : nest.refs) {
    const poly::ArrayDecl& array = program.array(ref.array);
    RefWalk walk;
    walk.ref = &ref;
    walk.element_size = array.element_size_bytes;
    if (steps && !ref.is_indirect()) {
      std::int64_t dim_stride = 1;
      for (std::size_t d = ref.map.rank(); d-- > 0;) {
        walk.stride += ref.map.expr(d).coeff(inner) * dim_stride;
        dim_stride *= array.dims[d];
      }
    }
    refs.push_back(walk);
  }
  return refs;
}

/// Innermost steps after the current one for which an element's chunk
/// span [first, last] stays unchanged: each of its first and last bytes
/// may move up to its chunk's edge in the direction of travel.
std::uint64_t steps_in_span(const RefWalk& walk, std::uint64_t chunk_size) {
  if (walk.stride == 0) return std::numeric_limits<std::uint64_t>::max();
  const std::uint64_t first = walk.flat * walk.element_size;
  const std::uint64_t last = first + walk.element_size - 1;
  const std::uint64_t step =
      static_cast<std::uint64_t>(walk.stride > 0 ? walk.stride
                                                 : -walk.stride) *
      walk.element_size;
  const std::uint64_t room =
      walk.stride > 0 ? std::min(chunk_size - 1 - first % chunk_size,
                                 chunk_size - 1 - last % chunk_size)
                      : std::min(first % chunk_size, last % chunk_size);
  return room / step;
}

/// Tags ranks [lo, hi) of `nest` into the empty `runs`, which receives
/// the block's maximal runs, interning their tags in `tags`.  The walk evaluates one
/// footprint per segment: the longest stretch of the innermost loop over
/// which no direct reference changes its chunk span (an indirect
/// reference limits it to one step), clipped to the row and to `hi`.
/// Returns the number of footprints evaluated.
std::uint64_t tag_block(const poly::Program& program,
                        const poly::LoopNest& nest, const DataSpace& space,
                        std::uint64_t lo, std::uint64_t hi, TagTable& tags,
                        std::vector<TagRun>& runs) {
  std::vector<RefWalk> refs = plan_refs(program, nest);
  const std::size_t inner = nest.depth() - 1;
  const std::int64_t inner_upper = nest.space.loop(inner).upper;
  const std::uint64_t chunk_size = space.chunk_size_bytes();
  poly::Iteration iter = nest.space.delinearize(lo);
  std::vector<std::uint32_t> footprint;
  std::uint64_t footprints = 0;
  bool row_start = true;
  for (std::uint64_t rank = lo; rank < hi;) {
    if (row_start) {
      for (auto& walk : refs) {
        if (!walk.ref->is_indirect()) {
          walk.flat = poly::resolve_element(program, *walk.ref, iter);
        }
      }
      row_start = false;
    }
    std::uint64_t len = std::min(
        static_cast<std::uint64_t>(inner_upper - iter[inner]) + 1, hi - rank);
    footprint.clear();
    for (const auto& walk : refs) {
      std::uint64_t flat = walk.flat;
      if (walk.ref->is_indirect()) {
        flat = poly::resolve_element(program, *walk.ref, iter);
        len = 1;
      } else {
        const std::uint64_t steps = steps_in_span(walk, chunk_size);
        if (steps < len) len = steps + 1;
      }
      const auto span = space.element_chunks(walk.ref->array, flat);
      for (ChunkId c = span.first; c <= span.last; ++c) footprint.push_back(c);
    }
    std::sort(footprint.begin(), footprint.end());
    footprint.erase(std::unique(footprint.begin(), footprint.end()),
                    footprint.end());
    ++footprints;

    if (!runs.empty() &&
        std::ranges::equal(tags.bits(runs.back().tag), footprint)) {
      runs.back().end = rank + len;
    } else {
      runs.push_back(TagRun{tags.intern(footprint), rank, rank + len});
    }

    rank += len;
    iter[inner] += static_cast<std::int64_t>(len);
    for (auto& walk : refs) {
      walk.flat += static_cast<std::uint64_t>(
          static_cast<std::int64_t>(len) * walk.stride);
    }
    if (iter[inner] > inner_upper && rank < hi) {
      iter[inner] = inner_upper;
      nest.space.advance(iter);
      row_start = true;
    }
  }
  return footprints;
}

/// Tags a whole nest into `tags` (whose index the caller has reset) and
/// returns its runs: one serial walk, or block-parallel walks with their
/// own tables, re-interned in block order and stitched at the block
/// boundaries when a pool is available and the nest is big enough to
/// amortize the fan-out.
std::vector<TagRun> tag_nest(const poly::Program& program,
                             const poly::LoopNest& nest,
                             const DataSpace& space, ThreadPool* pool,
                             TagTable& tags, std::uint64_t& footprints) {
  const std::uint64_t total = nest.space.size();
  std::vector<TagRun> runs;
  if (pool == nullptr || pool->num_threads() <= 1 || total < 2048) {
    footprints += tag_block(program, nest, space, 0, total, tags, runs);
    return runs;
  }

  const auto size = static_cast<std::size_t>(total);
  const std::size_t grain = pool->default_grain(size);
  struct Block {
    TagTable tags;
    std::vector<TagRun> runs;
    std::uint64_t footprints = 0;
  };
  std::vector<Block> blocks(ThreadPool::chunk_count(0, size, grain));
  pool->parallel_chunks(0, size, grain,
                        [&](std::size_t b, std::size_t lo, std::size_t hi) {
                          Block& block = blocks[b];
                          block.footprints =
                              tag_block(program, nest, space, lo, hi,
                                        block.tags, block.runs);
                        });

  // Local ids are first-occurrence order within a block, so re-interning
  // them block by block assigns global ids in first-occurrence order.
  std::vector<std::uint32_t> global;
  for (const Block& block : blocks) {
    footprints += block.footprints;
    global.resize(block.tags.size());
    for (std::uint32_t id = 0; id < global.size(); ++id) {
      global[id] = tags.intern(block.tags.bits(id));
    }
    for (const TagRun& run : block.runs) {
      const std::uint32_t tag = global[run.tag];
      if (!runs.empty() && runs.back().end == run.begin &&
          runs.back().tag == tag) {
        runs.back().end = run.end;
      } else {
        runs.push_back(TagRun{tag, run.begin, run.end});
      }
    }
  }
  return runs;
}

/// An iteration chunk before coarsening: its tag is a TagTable id, its
/// ranges a slice of the shared range array.
struct ProtoChunk {
  poly::NestId nest = 0;
  std::size_t range_begin = 0;
  std::size_t range_end = 0;
  std::uint64_t iterations = 0;
};

/// Group starts of the pairwise coarsening rounds, over `order` (proto
/// chunks sorted by (nest, first rank)).  Each round walks the groups in
/// order and merges a group with its successor in the same nest while
/// the projected count still exceeds `bound`.  A merged group's first
/// rank is its first member's, so the groups stay in (nest, first rank)
/// order and the rounds never need to re-sort.
std::vector<std::size_t> coarsen_groups(const std::vector<ProtoChunk>& protos,
                                        const std::vector<std::uint32_t>& order,
                                        std::uint32_t bound,
                                        std::uint64_t& rounds) {
  std::vector<std::size_t> starts(order.size());
  std::iota(starts.begin(), starts.end(), std::size_t{0});
  const auto nest_of = [&](std::size_t start) {
    return protos[order[start]].nest;
  };
  std::vector<std::size_t> next;
  while (starts.size() > bound) {
    next.clear();
    std::size_t i = 0;
    while (i < starts.size()) {
      const std::size_t projected = next.size() + (starts.size() - i);
      next.push_back(starts[i]);
      if (projected > bound && i + 1 < starts.size() &&
          nest_of(starts[i]) == nest_of(starts[i + 1])) {
        i += 2;
      } else {
        i += 1;
      }
    }
    if (next.size() == starts.size()) break;  // nothing mergeable
    starts.swap(next);
    ++rounds;
  }
  return starts;
}

}  // namespace

void iteration_footprint(const poly::Program& program,
                         const poly::LoopNest& nest, const DataSpace& space,
                         std::span<const std::int64_t> iter,
                         std::vector<std::uint32_t>& out) {
  out.clear();
  for (const auto& ref : nest.refs) {
    const std::uint64_t flat = poly::resolve_element(program, ref, iter);
    const auto span = space.element_chunks(ref.array, flat);
    for (ChunkId c = span.first; c <= span.last; ++c) out.push_back(c);
  }
  std::sort(out.begin(), out.end());
  out.erase(std::unique(out.begin(), out.end()), out.end());
}

TaggingResult compute_iteration_chunks(const poly::Program& program,
                                       const DataSpace& space,
                                       std::span<const poly::NestId> nests,
                                       const TaggingOptions& options,
                                       ThreadPool* pool) {
  obs::Span span("pipeline.tagging");
  TaggingResult result;
  result.num_data_chunks = space.num_chunks();

  // Hash-cons the runs, nest by nest in the given order: recurring tags
  // fold into one chunk with several ranges, exactly the paper's
  // definition (an iteration chunk is the set of *all* iterations with
  // one tag).  Chunk ids are first-occurrence order, so the table is
  // identical however the runs were computed.  Runs are maximal and
  // arrive in rank order, so each chunk's ranges come out normalized.
  TagTable tags;
  std::vector<ProtoChunk> protos;
  struct NestBlock {
    poly::NestId nest;
    std::uint32_t begin;  // the nest's chunk ids
    std::uint32_t end;
  };
  std::vector<NestBlock> nest_blocks;
  std::vector<poly::LinearRange> ranges;
  std::uint64_t footprints = 0;
  for (poly::NestId nest_id : nests) {
    const poly::LoopNest& nest = program.nest(nest_id);
    if (nest.space.empty()) continue;
    tags.reset_index();
    const std::size_t base = protos.size();
    const std::vector<TagRun> runs =
        tag_nest(program, nest, space, pool, tags, footprints);

    protos.resize(tags.size(), ProtoChunk{nest_id, 0, 0, 0});
    for (const TagRun& run : runs) ++protos[run.tag].range_end;
    std::size_t cursor = ranges.size();
    for (std::size_t id = base; id < protos.size(); ++id) {
      protos[id].range_begin = cursor;
      cursor += protos[id].range_end;
      protos[id].range_end = protos[id].range_begin;
    }
    ranges.resize(cursor);
    for (const TagRun& run : runs) {
      ProtoChunk& proto = protos[run.tag];
      ranges[proto.range_end++] = poly::LinearRange{run.begin, run.end};
      proto.iterations += run.end - run.begin;
    }
    nest_blocks.push_back(NestBlock{nest_id, static_cast<std::uint32_t>(base),
                                    static_cast<std::uint32_t>(protos.size())});
    result.total_iterations += nest.space.size();
  }

  // Beyond the bound, rank-adjacent chunks of one nest are merged
  // pairwise, round by round, until at most `bound` remain; adjacent-in-
  // rank chunks are the most likely to share data, so the union tags
  // stay tight.  The rounds run on group boundaries, and each final chunk
  // is built once: its tag is the union of its members' tags, its ranges
  // their concatenation, normalized.
  const std::uint32_t bound = options.max_iteration_chunks;
  std::uint64_t rounds = 0;
  // Output chunk g is built from the ids order[starts[g], starts[g + 1]).
  std::vector<std::uint32_t> order(protos.size());
  std::iota(order.begin(), order.end(), 0u);
  std::vector<std::size_t> starts(protos.size());
  std::iota(starts.begin(), starts.end(), std::size_t{0});
  if (protos.size() > bound) {
    result.coarsened = true;
    // Within a nest, ids are in first-occurrence order, which is first-
    // rank order; so the (nest, first rank) order is the nests' id blocks
    // ordered by nest id.
    std::stable_sort(nest_blocks.begin(), nest_blocks.end(),
                     [](const NestBlock& a, const NestBlock& b) {
                       return a.nest < b.nest;
                     });
    order.clear();
    for (const NestBlock& block : nest_blocks) {
      for (std::uint32_t id = block.begin; id < block.end; ++id) {
        MLSC_DCHECK(id == block.begin ||
                        ranges[protos[id - 1].range_begin].begin <
                            ranges[protos[id].range_begin].begin,
                    "chunk ids out of first-rank order");
        order.push_back(id);
      }
    }
    starts = coarsen_groups(protos, order, bound, rounds);
  }
  starts.push_back(order.size());

  result.chunks.reserve(starts.size() - 1);
  std::vector<std::uint32_t> seen(space.num_chunks(), 0);  // group + 1
  for (std::size_t g = 0; g + 1 < starts.size(); ++g) {
    IterationChunk chunk;
    chunk.nest = protos[order[starts[g]]].nest;
    std::vector<std::uint32_t> bits;
    for (std::size_t m = starts[g]; m < starts[g + 1]; ++m) {
      const ProtoChunk& proto = protos[order[m]];
      for (std::uint32_t bit : tags.bits(order[m])) {
        if (seen[bit] != g + 1) {
          seen[bit] = static_cast<std::uint32_t>(g + 1);
          bits.push_back(bit);
        }
      }
      chunk.ranges.insert(chunk.ranges.end(),
                          ranges.begin() + proto.range_begin,
                          ranges.begin() + proto.range_end);
      chunk.iterations += proto.iterations;
    }
    chunk.tag = ChunkTag::from_bits(std::move(bits));
    if (starts[g + 1] - starts[g] > 1) {
      chunk.ranges = poly::normalize_ranges(std::move(chunk.ranges));
      MLSC_CHECK(poly::total_range_size(chunk.ranges) == chunk.iterations,
                 "coarsened chunks overlapped");
    }
    result.chunks.push_back(std::move(chunk));
  }

  std::uint64_t covered = 0;
  for (const auto& chunk : result.chunks) covered += chunk.iterations;
  MLSC_CHECK(covered == result.total_iterations,
             "iteration chunks do not partition the iteration set: "
                 << covered << " vs " << result.total_iterations);
  span.arg("chunks", static_cast<std::uint64_t>(result.chunks.size()));
  span.arg("iterations", result.total_iterations);
  span.arg("coarsened", std::uint64_t{result.coarsened ? 1u : 0u});
  span.arg("runs", static_cast<std::uint64_t>(ranges.size()));
  span.arg("footprints", footprints);
  span.arg("coarsen_rounds", rounds);
  MLSC_COUNTER_ADD("pipeline.tagging_footprints", footprints);
  MLSC_GAUGE_SET("pipeline.iteration_chunks",
                 static_cast<double>(result.chunks.size()));
  return result;
}

}  // namespace mlsc::core
