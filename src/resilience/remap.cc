#include "resilience/remap.h"

#include <algorithm>
#include <map>
#include <sstream>
#include <utility>

#include "obs/trace.h"

namespace mlsc::resilience {

RemapDecision decide_remap(const RemapPolicy& policy,
                           const FaultSchedule& schedule,
                           const topology::HierarchyTree& tree) {
  RemapDecision decision;
  if (!policy.remap_on_failure) return decision;
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

topology::HierarchyTree surviving_topology(
    const topology::HierarchyTree& tree, const FaultSchedule& schedule) {
  const FaultInjector end = fault_end_state(schedule, tree);
  topology::HierarchyTree surviving = tree;
  for (topology::NodeId id = 0; id < tree.num_nodes(); ++id) {
    if (end.failed(id)) surviving.set_cache_capacity(id, 0);
  }
  return surviving;
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
/// deterministic.  Sync edges follow their items; surviving clients'
/// existing items keep their indices (moved items are appended).
void redistribute_work(core::MappingResult& mapping,
                       const std::vector<bool>& affected) {
  std::vector<std::uint32_t> survivors;
  for (std::uint32_t c = 0; c < mapping.client_work.size(); ++c) {
    if (!affected[c]) survivors.push_back(c);
  }
  // Nothing to move, or nowhere to move it (every client affected — e.g.
  // a whole-level fail-stop): keep the mapping as computed.
  if (survivors.empty() || survivors.size() == mapping.client_work.size()) {
    return;
  }

  std::vector<std::uint64_t> load(mapping.client_work.size(), 0);
  for (std::uint32_t c = 0; c < mapping.client_work.size(); ++c) {
    load[c] = mapping.client_iterations(c);
  }

  const auto item_key = [](std::uint32_t client, std::uint32_t item) {
    return (static_cast<std::uint64_t>(client) << 32) | item;
  };
  std::map<std::uint64_t, std::pair<std::uint32_t, std::uint32_t>> moved;

  for (std::uint32_t c = 0; c < mapping.client_work.size(); ++c) {
    if (!affected[c]) continue;
    auto& items = mapping.client_work[c];
    for (std::uint32_t i = 0; i < items.size(); ++i) {
      std::uint32_t best = survivors.front();
      for (const std::uint32_t s : survivors) {
        if (load[s] < load[best]) best = s;
      }
      auto& dst = mapping.client_work[best];
      moved[item_key(c, i)] = {best,
                               static_cast<std::uint32_t>(dst.size())};
      load[best] += items[i].iterations;
      dst.push_back(std::move(items[i]));
    }
    items.clear();
    load[c] = 0;
  }

  for (core::SyncEdge& edge : mapping.sync_edges) {
    const auto p = moved.find(item_key(edge.producer_client,
                                       edge.producer_item));
    if (p != moved.end()) {
      edge.producer_client = p->second.first;
      edge.producer_item = p->second.second;
    }
    const auto q = moved.find(item_key(edge.consumer_client,
                                       edge.consumer_item));
    if (q != moved.end()) {
      edge.consumer_client = q->second.first;
      edge.consumer_item = q->second.second;
    }
  }
}

}  // namespace

core::MappingResult remap_mapping(const topology::HierarchyTree& surviving,
                                  const FaultSchedule& schedule,
                                  const core::PipelineOptions& options,
                                  const poly::Program& program,
                                  const core::DataSpace& space) {
  obs::Span span("resilience.remap");
  const core::MappingPipeline pipeline(surviving, options);
  core::MappingResult mapping = pipeline.run_all(program, space);
  redistribute_work(mapping, affected_clients(surviving, schedule));
  return mapping;
}

}  // namespace mlsc::resilience
