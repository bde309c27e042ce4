// Remap-on-failure: redistributing the mapping off failed caches.
//
// When a cache level fail-stops (or miss rates drift past a threshold),
// the clients that were mapped for affinity at the dead node lose their
// locality: their accesses fall through to deeper levels at failover
// cost.  decide_remap says when a schedule warrants a remap; the remap
// itself keeps the mapping the pipeline computed (the Fig. 5 mapper
// reads only the tree's shape, which a failure does not change) and
// moves the affected clients' work onto healthy ones, then re-derives
// the §5.4 sync edges with the pipeline's own sync stage.  The remap's
// cost is modelled as a global stall (every client pauses while the new
// mapping is installed) and its benefit shows up as recovered
// throughput; bench_degraded reports both sides.
#pragma once

#include <string>

#include "cache/storage_cache.h"
#include "core/pipeline.h"
#include "resilience/fault.h"
#include "support/units.h"
#include "topology/hierarchy.h"

namespace mlsc::resilience {

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

/// The remap trigger of a fault schedule on `tree`: the earliest
/// fail-stop that names a node still failed at the schedule's end
/// (fault_end_state); a fail-stop that is later recovered triggers
/// nothing.  (Drift-based triggers are evaluated separately against
/// observed stats.)
RemapDecision decide_remap(const FaultSchedule& schedule,
                           const topology::HierarchyTree& tree);

/// Miss-rate drift trigger: true when `observed`'s miss rate exceeds
/// `baseline`'s by more than kMissRateDrift (absolute).
bool drift_exceeded(const cache::CacheStats& baseline,
                    const cache::CacheStats& observed);

/// Moves the work of every client whose root path crosses a node the
/// schedule leaves failed onto the healthy clients, item by item, each
/// to the least-loaded one (ties by rank), so no work is left paying
/// failover detection on every access.  Moved items are appended: a
/// healthy client keeps its own items, in order, as a prefix.  When
/// `options` ran the §5.4 sync stage (the inter-processor scheme under
/// kSynchronize), the stage re-derives the sync edges on the new
/// placement, reordering items only where it would deadlock.  When no
/// client or every client is affected (a whole-level fail-stop) the
/// mapping is left as it is.
void remap_mapping(core::MappingResult& mapping,
                   const topology::HierarchyTree& tree,
                   const FaultSchedule& schedule,
                   const core::PipelineOptions& options,
                   const poly::Program& program);

}  // namespace mlsc::resilience
