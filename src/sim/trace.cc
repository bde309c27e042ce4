#include "sim/trace.h"

namespace mlsc::sim {

std::uint64_t ClientTrace::total_iterations() const {
  std::uint64_t total = 0;
  for (const TraceItem& item : items) total += item.iterations;
  return total;
}

Trace generate_trace(const poly::Program& program,
                     const core::DataSpace& space,
                     const core::MappingResult& mapping) {
  Trace trace;
  trace.program = &program;
  trace.space = &space;
  trace.clients.resize(mapping.num_clients());
  for (std::size_t c = 0; c < mapping.num_clients(); ++c) {
    std::vector<TraceItem>& items = trace.clients[c].items;
    items.reserve(mapping.client_work[c].size());
    for (const core::WorkItem& work : mapping.client_work[c]) {
      items.push_back(TraceItem{
          work.iterations,
          program.nest(work.nest).compute_ns_per_iteration});
    }
  }
  return trace;
}

}  // namespace mlsc::sim
