// The live mapping state the online service owns (DESIGN.md §17).
//
// MappingState holds, across workload churn:
//   - the global iteration-chunk table (each registered instance's
//     chunks, tags kept in the instance's own data space),
//   - the global data-chunk posting index (instances of the same
//     workload name + size factor share one tag-bit range, so tenants
//     over the same data can cluster together; distinct data keys get
//     disjoint bit ranges and never interact),
//   - the standing affinity forest (a maximum-spanning-forest over
//     chunk-similarity edges, built and cut by core/affinity_forest —
//     the kernel core::clustering's kForest path calls too) and its
//     union-find,
//   - the standing cut (clusters of chunks, possibly spanning
//     instances) with per-cluster client placement and per-client load.
//
// Registration is incremental: only the new instance's chunks are tagged
// and scored (cost proportional to the arrival, not to the standing
// table), and its edges are hooked into the standing forest by Borůvka
// rounds against the existing components.  A full recompute rebuilds the
// forest from the posting index from scratch — deterministically
// identical to registering the same live set into a fresh state, which
// is the oracle the tests pin.
//
// The state runs the offline kernels, not copies of them: rows are
// scored by core::score_rows over the posting index (tag bits as counts
// of 1), the forest is hooked and cut by core/affinity_forest — the
// patch's leftover components too, by cut_forest over an empty forest —
// and every placement and imbalance figure comes from one heaviest-
// first, least-loaded-alive-client rule and one max-relative-deviation
// formula.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <unordered_map>
#include <vector>

#include "cache/storage_cache.h"
#include "core/affinity_forest.h"
#include "core/iteration_chunk.h"
#include "core/mapping.h"
#include "core/tagging.h"
#include "resilience/fault.h"
#include "sim/machine.h"
#include "support/thread_pool.h"
#include "topology/hierarchy.h"
#include "workloads/workload.h"

namespace mlsc::serve {

inline constexpr std::uint32_t kUnplaced = UINT32_MAX;

struct ServeStateOptions {
  core::TaggingOptions tagging;
  /// Balance-aware cut slack of the standing cut (see
  /// core::kCutBalanceSlack; negative disables the cap).
  double cut_balance_slack = core::kCutBalanceSlack;
};

/// Mapping-work accounting for one operation, mirrored into the
/// pipeline.* counters: candidate pairs scored and forest hooks made.
struct DeltaStats {
  std::uint64_t scored_pairs = 0;
  std::uint64_t forest_hooks = 0;
  std::uint64_t rounds = 0;

  DeltaStats& operator+=(const DeltaStats& other) {
    scored_pairs += other.scored_pairs;
    forest_hooks += other.forest_hooks;
    rounds += other.rounds;
    return *this;
  }
};

/// One registered workload instance.
struct WorkloadEntry {
  std::string id;
  std::string name;          // registry name or "irregular"
  double size_factor = 1.0;
  std::uint32_t requested_clients = 0;
  bool live = false;

  workloads::Workload workload;

  /// Tag-bit base shared by every live instance with the same
  /// (name, size_factor) data key; bit b of a chunk tag posts under
  /// global key tag_offset + b.
  std::uint64_t tag_offset = 0;
  std::uint32_t num_data_chunks = 0;  // r, the tag width
  std::uint64_t total_iterations = 0;

  /// Global chunk ids [first_chunk, first_chunk + num_chunks).
  std::uint32_t first_chunk = 0;
  std::uint32_t num_chunks = 0;

  /// Drift baseline: shared (L2) cache stats of a solo engine replay
  /// captured right after registration (service-level, optional).
  cache::CacheStats baseline_l2;
  bool has_baseline = false;
};

/// One standing cluster: chunk members (global ids, ascending, possibly
/// from several instances), their iteration total, and the client the
/// cluster is placed on.
struct ServeCluster {
  std::vector<std::uint32_t> members;
  std::uint64_t iterations = 0;
  std::uint32_t client = kUnplaced;
};

/// A simulatable patch for one registration: brand-new clusters (from
/// forest components containing only new chunks) plus appends of new
/// chunks onto the standing clusters their components hooked into.
struct PatchPlan {
  struct Append {
    std::uint32_t cluster = 0;
    std::vector<std::uint32_t> members;
    std::uint64_t iterations = 0;
  };
  std::vector<ServeCluster> new_clusters;  // unplaced
  std::vector<Append> appends;
};

class MappingState {
 public:
  MappingState(const sim::MachineConfig& machine,
               ServeStateOptions options = {});

  // --- workload lifecycle -------------------------------------------------
  /// Tags the instance (reusing a live sibling's chunk table when the
  /// data key already exists), appends its chunks and postings, scores
  /// candidate edges against the posting index (new chunks only), and
  /// hooks them into the standing forest.  Clusters are untouched; call
  /// build_patch/apply_patch or recut_all next.  Returns the entry index.
  std::size_t register_workload(const std::string& id, const std::string& name,
                                double size_factor, std::uint32_t clients,
                                ThreadPool* pool, DeltaStats* stats);

  /// Removes the instance: postings, forest edges, cluster members and
  /// load contributions.  Empty clusters vanish; placements of surviving
  /// clusters stay (the patch path), so imbalance may grow — callers
  /// escalate per policy.
  void depart_workload(std::size_t widx);

  /// Updates the requested client count (changes the global cut target).
  void set_requested_clients(std::size_t widx, std::uint32_t clients);

  /// Records the drift baseline of an instance (its healthy solo-replay
  /// shared-cache stats).
  void set_baseline(std::size_t widx, const cache::CacheStats& l2);

  /// The patch for the newest registration of `widx`: new clusters for
  /// purely-new forest components (merged by cut_forest's leftover rule
  /// down to the instance's requested clients), appends for components
  /// hooked onto standing clusters.
  PatchPlan build_patch(std::size_t widx) const;
  /// Commits the plan: appends update placed loads in place; new
  /// clusters are placed least-loaded-first.
  void apply_patch(const PatchPlan& plan);
  /// Imbalance after the plan would be applied (nothing committed).
  double simulate_patch(const PatchPlan& plan) const;

  /// Re-cuts the whole standing forest to the current target and
  /// re-places every cluster least-loaded-first (the partial-remap
  /// path: forest kept, cut + placement redone).
  void recut_all();

  /// Rebuilds the standing forest from the posting index from scratch
  /// (every live chunk re-scored), then recut_all().  The full-recompute
  /// path; bit-identical to a fresh state over the same live set.
  void rebuild_all(ThreadPool* pool, DeltaStats* stats);

  // --- faults -------------------------------------------------------------
  /// Merges `schedule` into the cumulative fault history and updates
  /// client liveness (a client whose compute node the history's end
  /// state holds failed is dead).  The batch is checked first: a
  /// fail-stop or degrade of an absent node, or a batch that leaves no
  /// alive client, throws Error and changes nothing; a recover of an
  /// absent node is a no-op and is not merged.
  void apply_faults(const resilience::FaultSchedule& schedule);
  /// Re-places clusters stranded on dead clients, least-loaded-first;
  /// returns how many moved.
  std::size_t replace_orphans();
  /// The history's end state (resilience::fault_end_state) as events at
  /// t=0: per level and node index a fail-stop if the node is failed and
  /// a degrade if its latency factor or capacity divisor is not 1, then
  /// one transient event if an error rate is above 0 — the injector
  /// state a drift-estimation replay should run under.
  resilience::FaultSchedule effective_faults() const;

  // --- queries ------------------------------------------------------------
  const sim::MachineConfig& machine() const { return machine_; }
  const topology::HierarchyTree& tree() const { return tree_; }
  const std::vector<WorkloadEntry>& entries() const { return entries_; }
  const std::vector<ServeCluster>& clusters() const { return clusters_; }
  const std::vector<std::uint64_t>& client_load() const { return load_; }
  const std::vector<bool>& client_alive() const { return client_alive_; }
  const std::vector<core::IterationChunk>& chunks() const { return chunks_; }

  std::size_t find_live(const std::string& id) const;  // npos when absent
  std::size_t num_live_workloads() const;
  std::size_t num_alive_clients() const;
  /// Live chunks in the standing table.
  std::size_t standing_chunks() const;
  std::uint64_t total_load() const;
  /// Global cut target: sum of live instances' requested clients,
  /// clamped to [1, live chunks].
  std::size_t cut_target() const;
  /// Max relative deviation of alive clients' loads from their mean.
  double imbalance() const;

  /// Engine-replayable solo mapping of one live instance: its chunks as
  /// WorkItems on the clients the standing placement assigns them,
  /// optionally restricted to the `sample_clients` busiest clients (0 =
  /// all).  Used for drift estimation and end-state cost accounting.
  core::MappingResult entry_mapping(std::size_t widx,
                                    std::size_t sample_clients = 0) const;

  /// Structural invariants: every live chunk in exactly one cluster,
  /// cluster iteration totals and per-client loads consistent, postings
  /// exactly the live chunks' bits, forest edges alive and acyclic.
  void check_invariants() const;

  /// Deterministic end-state serialization.  Chunks are named
  /// (instance id, local index) so the fingerprint is comparable across
  /// histories that assign different global ids.
  std::string fingerprint() const;

 private:
  struct DataKey {
    std::uint64_t tag_offset = 0;
    std::uint32_t num_data_chunks = 0;
    std::uint32_t live_instances = 0;
  };

  std::uint64_t chunk_order_key(std::uint32_t chunk) const;
  /// Scores the listed chunk rows against the posting index with the
  /// shared row kernel (core::score_rows), hooks the edges into the
  /// standing forest and books both into `stats`; returns the pairs
  /// scored.
  std::uint64_t score_and_hook(std::span<const std::uint32_t> rows,
                               ThreadPool* pool, DeltaStats* stats);
  bool chunk_live(std::uint32_t chunk) const;
  void rebuild_parent_from_forest();

  sim::MachineConfig machine_;
  topology::HierarchyTree tree_;
  ServeStateOptions options_;

  std::vector<WorkloadEntry> entries_;
  std::unordered_map<std::string, DataKey> data_keys_;
  std::uint64_t next_tag_offset_ = 0;

  std::vector<core::IterationChunk> chunks_;  // global, tags data-key-local
  std::vector<std::uint32_t> chunk_owner_;    // entry index per chunk

  /// Posting index: global bit key -> live chunk ids, ascending.
  std::unordered_map<std::uint64_t, std::vector<std::uint32_t>> postings_;

  /// Union-find over forest components; mutable so const queries can
  /// path-compress (semantically pure).
  mutable std::vector<std::uint32_t> parent_;
  std::vector<core::ForestEdge> forest_;  // hooked edges, append order

  std::vector<ServeCluster> clusters_;
  std::vector<std::uint32_t> cluster_of_chunk_;  // kUnplaced when none
  std::vector<std::uint64_t> load_;              // per client rank
  std::vector<bool> client_alive_;

  resilience::FaultSchedule faults_;  // cumulative history
};

}  // namespace mlsc::serve
