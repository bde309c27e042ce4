#include "sim/trace.h"

#include <algorithm>
#include <map>

#include "poly/order.h"
#include "support/check.h"

namespace mlsc::sim {
namespace {

/// Per-item accumulation buffer.
struct ItemBuffer {
  std::vector<Access> accesses;
  std::vector<std::uint8_t> per_iteration;
  Nanoseconds compute_ns = 0;
};

/// Emits one iteration's accesses into `buffer`: every chunk each
/// reference's element covers, in reference order.
void emit_iteration(const poly::Program& program,
                    const core::DataSpace& space, const poly::LoopNest& nest,
                    std::span<const std::int64_t> iter, ItemBuffer& buffer) {
  std::uint32_t count = 0;
  for (const poly::ArrayRef& ref : nest.refs) {
    const std::uint64_t flat = poly::resolve_element(program, ref, iter);
    const auto span = space.element_chunks(ref.array, flat);
    for (core::ChunkId c = span.first; c <= span.last; ++c) {
      buffer.accesses.push_back(Access{c, ref.is_write});
      ++count;
    }
  }
  MLSC_CHECK(count <= 255, "iteration touches more than 255 chunks");
  buffer.per_iteration.push_back(static_cast<std::uint8_t>(count));
}

}  // namespace

std::uint64_t Trace::total_accesses() const {
  std::uint64_t total = 0;
  for (const auto& c : clients) total += c.accesses.size();
  return total;
}

Trace generate_trace(const poly::Program& program,
                     const core::DataSpace& space,
                     const core::MappingResult& mapping) {
  const std::size_t num_clients = mapping.num_clients();
  // buffers[client][item] mirrors mapping.client_work.
  std::vector<std::vector<ItemBuffer>> buffers(num_clients);
  for (std::size_t c = 0; c < num_clients; ++c) {
    buffers[c].resize(mapping.client_work[c].size());
    for (std::size_t k = 0; k < buffers[c].size(); ++k) {
      buffers[c][k].compute_ns =
          program.nest(mapping.client_work[c][k].nest)
              .compute_ns_per_iteration;
    }
  }

  // Pass 1 — identity-order items: enumerate their rank ranges directly.
  // Pass 2 prep — group transformed-order items by nest for shared walks.
  struct PendingBlock {
    poly::LinearRange range;  // positions in transformed order
    std::size_t client = 0;
    std::size_t item = 0;
  };
  std::map<poly::NestId, std::pair<poly::IterationOrder,
                                   std::vector<PendingBlock>>> walks;

  for (std::size_t c = 0; c < num_clients; ++c) {
    for (std::size_t k = 0; k < mapping.client_work[c].size(); ++k) {
      const core::WorkItem& item = mapping.client_work[c][k];
      const poly::LoopNest& nest = program.nest(item.nest);
      if (item.order.is_identity()) {
        for (const auto& range : item.ranges) {
          poly::Iteration iter = nest.space.delinearize(range.begin);
          for (std::uint64_t rank = range.begin; rank < range.end; ++rank) {
            emit_iteration(program, space, nest, iter, buffers[c][k]);
            if (rank + 1 < range.end) {
              MLSC_CHECK(nest.space.advance(iter), "walk ran off the space");
            }
          }
        }
      } else {
        auto& [order, blocks] = walks[item.nest];
        if (blocks.empty()) {
          order = item.order;
        } else {
          MLSC_CHECK(order.to_string() == item.order.to_string(),
                     "items of one nest must share a traversal order");
        }
        for (const auto& range : item.ranges) {
          blocks.push_back(PendingBlock{range, c, k});
        }
      }
    }
  }

  // Pass 2 — one walk per (nest, transformed order), routing positions to
  // their owning items.  Blocks are disjoint, sorted by position.
  for (auto& [nest_id, entry] : walks) {
    auto& [order, blocks] = entry;
    std::sort(blocks.begin(), blocks.end(),
              [](const PendingBlock& a, const PendingBlock& b) {
                return a.range.begin < b.range.begin;
              });
    const poly::LoopNest& nest = program.nest(nest_id);
    poly::OrderWalker walker(nest.space, order);
    std::size_t block = 0;
    while (!walker.done() && block < blocks.size()) {
      const std::uint64_t pos = walker.position();
      if (pos >= blocks[block].range.end) {
        ++block;
        continue;
      }
      if (pos >= blocks[block].range.begin) {
        emit_iteration(program, space, nest, walker.current(),
                       buffers[blocks[block].client][blocks[block].item]);
      }
      walker.next();
    }
  }

  // Flatten per-item buffers into per-client traces, preserving the
  // work-item order (so SyncEdge item indices line up).
  Trace trace;
  trace.num_data_chunks = space.num_chunks();
  trace.clients.resize(num_clients);
  for (std::size_t c = 0; c < num_clients; ++c) {
    ClientTrace& ct = trace.clients[c];
    for (std::size_t k = 0; k < buffers[c].size(); ++k) {
      ItemBuffer& buf = buffers[c][k];
      TraceItem item;
      item.first_iteration = ct.accesses_per_iteration.size();
      item.iterations = buf.per_iteration.size();
      item.compute_ns_per_iteration = buf.compute_ns;
      MLSC_CHECK(item.iterations == mapping.client_work[c][k].iterations,
                 "trace iteration count mismatch for client "
                     << c << " item " << k << ": " << item.iterations
                     << " vs " << mapping.client_work[c][k].iterations);
      ct.items.push_back(item);
      ct.accesses.insert(ct.accesses.end(), buf.accesses.begin(),
                         buf.accesses.end());
      ct.accesses_per_iteration.insert(ct.accesses_per_iteration.end(),
                                       buf.per_iteration.begin(),
                                       buf.per_iteration.end());
      buf = ItemBuffer{};  // release early
    }
  }
  return trace;
}

}  // namespace mlsc::sim
