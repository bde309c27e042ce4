#include "resilience/remap.h"

#include <algorithm>
#include <numeric>
#include <sstream>
#include <utility>
#include <vector>

#include "obs/trace.h"

namespace mlsc::resilience {

RemapDecision decide_remap(const FaultSchedule& schedule,
                           const topology::HierarchyTree& tree) {
  RemapDecision decision;
  const FaultInjector end = fault_end_state(schedule, tree);
  for (const FaultEvent& event : schedule.events) {
    if (event.kind != FaultKind::kFailStop) continue;
    const auto targets = resolve_fault_targets(tree, event);
    if (std::none_of(targets.begin(), targets.end(),
                     [&](topology::NodeId id) { return end.failed(id); })) {
      continue;  // recovered before the schedule ends
    }
    decision.triggered = true;
    decision.at = event.at;
    std::ostringstream reason;
    reason << "fail-stop of level " << event.level << " node ";
    if (event.node_index < 0) {
      reason << '*';
    } else {
      reason << event.node_index;
    }
    reason << " at " << format_time(event.at);
    decision.reason = reason.str();
    return decision;  // earliest fail-stop wins (events are sorted)
  }
  return decision;
}

bool drift_exceeded(const cache::CacheStats& baseline,
                    const cache::CacheStats& observed) {
  return observed.miss_rate() - baseline.miss_rate() > kMissRateDrift;
}

namespace {

/// Client ranks whose path to the root crosses a node the schedule
/// leaves failed: every access they make pays failover detection and
/// loses the dead cache's locality, so the remap moves their work to
/// clients whose paths are fully healthy.
std::vector<bool> affected_clients(const topology::HierarchyTree& tree,
                                   const FaultSchedule& schedule) {
  const FaultInjector end = fault_end_state(schedule, tree);
  std::vector<bool> affected(tree.num_clients(), false);
  for (std::size_t rank = 0; rank < tree.num_clients(); ++rank) {
    const auto path = tree.path_to_root(tree.clients()[rank]);
    affected[rank] =
        std::any_of(path.begin(), path.end(),
                    [&](topology::NodeId id) { return end.failed(id); });
  }
  return affected;
}

/// Moves every affected client's work items onto healthy clients,
/// greedily appending each item to the currently least-loaded survivor
/// (ties broken by rank) so the redistribution stays balanced and
/// deterministic.  Returns false, moving nothing, when no client or
/// every client is affected.
bool redistribute_work(core::MappingResult& mapping,
                       const std::vector<bool>& affected) {
  std::vector<std::uint32_t> survivors;
  for (std::uint32_t c = 0; c < mapping.client_work.size(); ++c) {
    if (!affected[c]) survivors.push_back(c);
  }
  // Nothing to move, or nowhere to move it (every client affected — e.g.
  // a whole-level fail-stop): keep the mapping as computed.
  if (survivors.empty() || survivors.size() == mapping.client_work.size()) {
    return false;
  }

  std::vector<std::uint64_t> load(mapping.client_work.size(), 0);
  for (std::uint32_t c = 0; c < mapping.client_work.size(); ++c) {
    load[c] = mapping.client_iterations(c);
  }
  for (std::uint32_t c = 0; c < mapping.client_work.size(); ++c) {
    if (!affected[c]) continue;
    for (core::WorkItem& item : mapping.client_work[c]) {
      std::uint32_t best = survivors.front();
      for (const std::uint32_t s : survivors) {
        if (load[s] < load[best]) best = s;
      }
      load[best] += item.iterations;
      mapping.client_work[best].push_back(std::move(item));
    }
    mapping.client_work[c].clear();
  }
  return true;
}

}  // namespace

void remap_mapping(core::MappingResult& mapping,
                   const topology::HierarchyTree& tree,
                   const FaultSchedule& schedule,
                   const core::PipelineOptions& options,
                   const poly::Program& program) {
  obs::Span span("resilience.remap");
  if (!redistribute_work(mapping, affected_clients(tree, schedule))) return;
  // The old sync edges name the old positions; the pipeline's sync stage
  // derives the new ones from the moved placement.
  mapping.sync_edges.clear();
  if (options.mapper == core::MapperKind::kInterProcessor &&
      options.dependences == core::DependenceStrategy::kSynchronize) {
    std::vector<poly::NestId> nests(program.nests.size());
    std::iota(nests.begin(), nests.end(), 0u);
    core::synchronize_mapping(mapping, program, nests);
  }
}

}  // namespace mlsc::resilience
