// The live mapping state the online service owns (DESIGN.md §17).
//
// MappingState holds, across workload churn:
//   - the global iteration-chunk table (each registered instance's
//     chunks, tags kept in the instance's own data space),
//   - one record per data key (instances of the same workload name +
//     size factor share a key, so tenants over the same data can
//     cluster together; distinct keys never share a tag bit and never
//     interact): the key's dense posting lists, indexed by key-local
//     tag bit, and whether its forest edges are still what a
//     from-scratch build over its live rows would hook,
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
// rounds against the existing components.  A full recompute re-scores
// only the data keys churn touched since their last from-scratch hook
// (the forest is a disjoint union of per-key parts) — deterministically
// identical to registering the same live set into a fresh state, which
// is the oracle the tests pin.
//
// The state runs the offline kernels, not copies of them: rows are
// scored by core::score_rows over a key's posting lists (tag bits as
// counts of 1), the forest is hooked and cut by core/affinity_forest —
// the patch's leftover components too, by cut_forest over an empty
// forest — and every placement and imbalance figure comes from one
// heaviest-first, least-loaded-alive-client rule and one
// max-relative-deviation formula.
#pragma once

#include <cstdint>
#include <optional>
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

/// Mapping-work accounting for one operation: candidate pairs scored
/// (mirrored into the pipeline.serve_scored_pairs counter), forest hooks
/// made and Borůvka rounds run.  A full recompute (rebuild_all)
/// reports what a from-scratch rebuild of the live set covers — every
/// live pair, the whole forest, the most rounds any data key needs — and
/// so does the journal; the pairs it actually re-scored are what the
/// pipeline.serve_rescored_pairs counter reports.
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

  /// The state's data key of this (name, size_factor): every instance
  /// of the same key shares it, and with it one tag-bit range.
  std::uint32_t data_key = 0;
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

  /// Rebuilds the standing forest as a from-scratch build over the live
  /// set would, then recut_all().  The full-recompute path; bit-identical
  /// to a fresh state over the same live set.  Only dirty data keys are
  /// re-scored and re-hooked; clean keys keep their forest edges.
  /// `stats` receives the from-scratch figures (see DeltaStats).
  void rebuild_all(ThreadPool* pool, DeltaStats* stats);

  // --- faults -------------------------------------------------------------
  /// Merges `schedule` into the cumulative fault history and updates
  /// client liveness (a client whose compute node the history's end
  /// state holds failed is dead).  The batch is checked first: a
  /// fail-stop or degrade of an absent node, or a batch that leaves no
  /// alive client, is rejected — the reason is returned and nothing
  /// changes; a recover of an absent node is a no-op and is not merged.
  /// Returns nullopt when the batch was applied.
  [[nodiscard]] std::optional<std::string> apply_faults(
      const resilience::FaultSchedule& schedule);
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
  /// Every chunk ever registered, by global id.  A departed instance's
  /// chunks keep only their nest and iteration count: their tags and
  /// ranges are freed.
  const std::vector<core::IterationChunk>& chunks() const { return chunks_; }
  /// The standing forest's edges, in the order they were hooked.
  const std::vector<core::ForestEdge>& forest() const { return forest_; }

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
  /// cluster iteration totals and per-client loads consistent, each data
  /// key's postings exactly its live chunks' bits (none for a key with
  /// no live instance), forest edges alive, within one key and acyclic.
  void check_invariants() const;

  /// Deterministic end-state serialization.  Chunks are named
  /// (instance id, local index) so the fingerprint is comparable across
  /// histories that assign different global ids.
  std::string fingerprint() const;

 private:
  /// One data key.  Its chunks share data with no other key's, so the
  /// live similarity graph and the standing forest are disjoint unions
  /// of per-key parts.  A key is clean when its forest edges are exactly
  /// a from-scratch Borůvka over its live rows (the maximum spanning
  /// forest of its part under edge_better's strict order):
  ///   - a register into a key with no live instance hooks the arrival
  ///     from scratch and leaves the key clean;
  ///   - a register into a key with a live instance, or a depart that
  ///     leaves siblings, makes it dirty;
  ///   - a depart that empties the key leaves it clean, with no
  ///     postings;
  ///   - rebuild_all re-hooks every dirty key from scratch.
  struct DataKey {
    std::uint32_t num_data_chunks = 0;
    std::uint32_t live_instances = 0;
    bool clean = true;
    /// Pairs scored and Borůvka rounds of the key's last from-scratch
    /// hook (0 while it has no live instance).
    std::uint64_t scored_pairs = 0;
    std::uint64_t rounds = 0;
    /// Posting lists by key-local tag bit: live chunk ids, ascending.
    std::vector<std::vector<std::uint32_t>> postings;
  };

  /// Scores the listed chunk rows — all of data key `key` — against the
  /// key's posting lists with the shared row kernel (core::score_rows)
  /// and hooks the edges into the standing forest; returns the pairs
  /// scored, hooks made and rounds run.
  DeltaStats score_and_hook(std::span<const std::uint32_t> rows,
                            const DataKey& key, ThreadPool* pool);
  bool chunk_live(std::uint32_t chunk) const;
  std::uint32_t key_of(std::uint32_t chunk) const;
  void rebuild_parent_from_forest();

  sim::MachineConfig machine_;
  topology::HierarchyTree tree_;
  ServeStateOptions options_;

  std::vector<WorkloadEntry> entries_;
  std::vector<DataKey> data_keys_;
  /// make_data_key(name, size_factor) -> index into data_keys_.
  std::unordered_map<std::string, std::uint32_t> key_index_;

  std::vector<core::IterationChunk> chunks_;  // global, tags data-key-local
  std::vector<std::uint32_t> chunk_owner_;    // entry index per chunk
  /// core::Cluster::make_order_key per chunk, computed at register so
  /// the cut never reads a chunk's ranges.
  std::vector<std::uint64_t> order_key_;

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
