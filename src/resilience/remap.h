// Remap-on-failure: re-running the mapping over surviving topology.
//
// When a cache level fail-stops (or miss rates drift past a threshold),
// the clients that were mapped for affinity at the dead node lose their
// locality: their accesses fall through to deeper levels at failover
// cost.  RemapPolicy decides when that is worth a re-map; the remap
// itself re-runs the ordinary mapping pipeline — tagging, clustering,
// load balancing, scheduling — over a copy of the hierarchy whose failed
// nodes carry no cache, so the mapper routes affinity around them.  The
// remap's cost is modelled as a global stall (every client pauses while
// the new mapping is installed) and its benefit shows up as recovered
// throughput; bench_degraded reports both sides.
#pragma once

#include <string>
#include <vector>

#include "cache/storage_cache.h"
#include "core/pipeline.h"
#include "resilience/fault.h"
#include "support/units.h"
#include "topology/hierarchy.h"

namespace mlsc::resilience {

struct RemapPolicy {
  /// Re-map as soon as the schedule fail-stops a cache level.
  bool remap_on_failure = true;
};

/// A shared level's observed miss rate may exceed its healthy baseline
/// by this much (absolute) before drift_exceeded() fires.
inline constexpr double kMissRateDrift = 0.15;

/// Downtime charged to every client while a remapped mapping is
/// installed, injected as a stall event at the trigger time.
inline constexpr Nanoseconds kRemapPauseNs = 500 * kMicrosecond;

/// Why (and when) a remap fired.
struct RemapDecision {
  bool triggered = false;
  Nanoseconds at = 0;
  std::string reason;
};

/// Evaluates the policy against a fault schedule on `tree`: the remap
/// triggers at the earliest fail-stop that names a node still failed at
/// the schedule's end (fault_end_state); a fail-stop that is later
/// recovered triggers nothing.  (Drift-based triggers are evaluated
/// separately against observed stats.)
RemapDecision decide_remap(const RemapPolicy& policy,
                           const FaultSchedule& schedule,
                           const topology::HierarchyTree& tree);

/// Miss-rate drift trigger: true when `observed`'s miss rate exceeds
/// `baseline`'s by more than kMissRateDrift (absolute).
bool drift_exceeded(const cache::CacheStats& baseline,
                    const cache::CacheStats& observed);

/// A copy of `tree` on which every node the schedule leaves failed
/// (fault_end_state) carries no cache, so the mapping pipeline
/// places affinity only at surviving caches.  Node ids, client ranks and
/// the tree shape are unchanged — mappings computed on the copy replay
/// directly against the original machine.
topology::HierarchyTree surviving_topology(
    const topology::HierarchyTree& tree, const FaultSchedule& schedule);

/// Re-runs the full mapping pipeline over the surviving topology, then
/// moves the work of every client whose root path crosses a node the
/// schedule leaves failed onto the healthy clients (least-loaded first,
/// ties by rank, deterministically), so no work is left paying failover
/// detection on every access.  When every client is affected (a whole-level
/// fail-stop) the mapping is returned unredistributed.  `surviving` must
/// outlive the returned mapping's use (the pipeline holds a reference
/// during the run only).
core::MappingResult remap_mapping(const topology::HierarchyTree& surviving,
                                  const FaultSchedule& schedule,
                                  const core::PipelineOptions& options,
                                  const poly::Program& program,
                                  const core::DataSpace& space);

}  // namespace mlsc::resilience
