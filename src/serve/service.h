// The online mapping service (DESIGN.md §17): event loop around a live
// MappingState.
//
// MappingService::process() applies one churn event, runs the remap
// cost/benefit policy (patch / partial remap / full recompute), commits
// the chosen scope, and journals the decision as an `mlsc-serve-event-v1`
// JSON line — the journal replays as an event stream, so the same events
// and seed reproduce a bit-identical end state at any thread count.
// Optional side channels: a Prometheus textfile refreshed atomically
// after every event, and periodic run-record snapshots that plug into
// mlsc_bench_diff / mlsc_report unchanged.
#pragma once

#include <cstdint>
#include <fstream>
#include <string>
#include <vector>

#include "obs/run_record.h"
#include "serve/event.h"
#include "serve/policy.h"
#include "serve/state.h"
#include "support/thread_pool.h"

namespace mlsc::serve {

struct ServiceOptions {
  sim::MachineConfig machine;
  std::size_t num_threads = 1;  // pass through resolve_num_threads first
  std::uint64_t seed = 0;

  ServeStateOptions state;
  ServePolicy policy;

  /// Drift estimation: each register captures a healthy solo-replay
  /// baseline over this many sampled clients, and each fault event
  /// re-replays live instances under the effective fault state to test
  /// resilience::RemapPolicy::miss_rate_drift.  0 disables the probes.
  std::size_t drift_sample = 0;

  std::string journal_path;    // decision journal (JSON lines)
  std::string prom_path;       // Prometheus textfile, tmp+rename per event
  std::string snapshot_path;   // run-record snapshot destination
  std::size_t snapshot_every = 0;  // events between snapshots (0 = end only)

  /// Run MappingState::check_invariants() after every event (soak/debug).
  bool check_invariants = false;
};

/// What the service decided (and did) for one event.
struct ServeDecision {
  ServeEvent event;
  RemapScope scope = RemapScope::kNone;
  std::string reason;
  double imbalance_before = 0.0;
  double imbalance_after = 0.0;
  Nanoseconds pause = 0;      // modelled install downtime of the scope
  DeltaStats delta;           // mapping work the event cost
  std::size_t clusters_moved = 0;  // orphans re-placed (fault events)
  bool drift = false;         // a drift probe fired
};

class MappingService {
 public:
  explicit MappingService(ServiceOptions options);
  ~MappingService();

  MappingService(const MappingService&) = delete;
  MappingService& operator=(const MappingService&) = delete;

  /// Applies one event end-to-end; throws Error on invalid events
  /// (unknown depart/scale ids, malformed fault specs).  A fault the
  /// state rejects (an absent target, or no client left alive) changes
  /// nothing and is journaled with scope none and a reason beginning
  /// "rejected:".
  ServeDecision process(const ServeEvent& event);

  /// Processes every event, then writes the final snapshot and
  /// Prometheus dump.
  void run(const std::vector<ServeEvent>& events);

  const MappingState& state() const { return state_; }
  const std::vector<ServeDecision>& decisions() const { return decisions_; }
  Nanoseconds total_pause() const { return total_pause_; }

  /// The journal line for a decision: the event object with a
  /// "decision" member appended (the stream parser ignores it).
  std::string decision_json(const ServeDecision& decision) const;

  /// Run-record snapshot of the live state (+ decision counters).
  obs::RunRecord snapshot() const;

 private:
  void settle(ServeDecision& decision, double imbalance_after_patch,
              const PatchPlan* plan);
  bool probe_drift();
  void capture_baseline(std::size_t widx);
  void after_event(ServeDecision& decision);
  void write_prom() const;

  ServiceOptions options_;
  ThreadPool pool_;
  MappingState state_;
  std::vector<ServeDecision> decisions_;
  std::ofstream journal_;
  Nanoseconds now_ = 0;
  Nanoseconds last_full_at_ = 0;
  bool any_full_yet_ = false;
  Nanoseconds total_pause_ = 0;
  std::size_t events_since_snapshot_ = 0;
};

}  // namespace mlsc::serve
