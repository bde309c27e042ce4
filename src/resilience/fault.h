// Deterministic fault injection for the multi-level cache hierarchy.
//
// A FaultSchedule is a seeded list of events at virtual timestamps:
// cache-level fail-stop (a node drops out, contents lost), degradation
// (service latency xk, capacity /k), transient disk/network error rates,
// recovery, and a global stall (the virtual downtime a remap charges).
// Schedules come from JSON files, from a compact spec string on the
// command line, or are generated from an RNG spec — all three are
// deterministic, so the same seed + schedule replays bit-identically.
//
// A FaultInjector is the runtime: the engine advances it along the
// virtual clock and it flips node state on the MultiLevelCache, answers
// per-node latency factors and error rates, and draws transient errors
// from an order-independent hash of (seed, client, op, attempt) so the
// outcome never depends on replay interleaving.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "cache/multilevel.h"
#include "resilience/retry.h"
#include "support/units.h"
#include "topology/hierarchy.h"

namespace mlsc {
class JsonValue;
}  // namespace mlsc

namespace mlsc::resilience {

enum class FaultKind {
  kFailStop,   // node's cache drops out; contents lost
  kDegrade,    // node's cache slows down and/or shrinks
  kTransient,  // disk/network ops start failing at a given rate
  kRecover,    // node returns (cold) at full capacity and speed
  kStall,      // global pause (models remap/reconfiguration downtime)
};

const char* fault_kind_name(FaultKind kind);

struct FaultEvent {
  Nanoseconds at = 0;  // virtual time the event takes effect
  FaultKind kind = FaultKind::kFailStop;

  /// Target cache level for fail-stop/degrade/recover: 1 = compute (L1),
  /// 2 = I/O (L2), 3 = storage (L3).  0 for transient/stall events.
  std::uint32_t level = 0;
  /// Index of the node within its level's left-to-right node list;
  /// -1 targets every node of the level.
  std::int32_t node_index = -1;

  /// kDegrade: cache service latency multiplier (>= 1).
  double latency_factor = 1.0;
  /// kDegrade: capacity divisor (>= 1); the cache restarts cold at
  /// base_capacity / capacity_divisor chunks.
  double capacity_divisor = 1.0;

  /// kTransient: per-attempt error probabilities (replace, not add).
  double disk_error_rate = 0.0;
  double net_error_rate = 0.0;

  /// kStall: pause length charged to every client's clock.
  Nanoseconds duration = 0;
};

struct FaultSchedule {
  std::vector<FaultEvent> events;  // sorted by `at` (stable)
  std::uint64_t seed = 0;          // drives transient-error draws

  bool empty() const { return events.empty(); }

  /// Appends an event keeping the sort order.
  void add(FaultEvent event);

  /// One-line summary for headers and run-record metadata.
  std::string to_string() const;
};

/// Parses the JSON schedule document:
///   {"seed": 42, "events": [
///     {"at_ms": 5, "kind": "fail-stop", "level": 2, "node": 0},
///     {"at_ms": 8, "kind": "degrade", "level": 3, "node": -1,
///      "latency_factor": 4, "capacity_divisor": 2},
///     {"at_ms": 0, "kind": "transient", "disk_error_rate": 0.01,
///      "net_error_rate": 0.001},
///     {"at_ms": 20, "kind": "recover", "level": 2, "node": 0},
///     {"at_ms": 10, "kind": "stall", "duration_ms": 2}]}
/// Unknown kinds, bad levels, and non-object events throw Error.
FaultSchedule parse_fault_schedule_json(const JsonValue& doc);

/// Parses the compact command-line grammar: ';'-separated events
///   fail@5ms:l2.0        degrade@8ms:l3:lat=4,cap=2
///   transient@0:disk=0.01,net=0.001
///   recover@20ms:l2.0    stall@10ms:2ms     seed=42
/// plus random generation `rand@SEED:n=N:horizon=50ms` (N events drawn
/// deterministically from Rng(SEED)).  Times accept ns/us/ms/s suffixes
/// (bare numbers are nanoseconds).  Throws Error on malformed specs.
FaultSchedule parse_fault_spec(std::string_view spec);

/// Loads a schedule from `arg`: an existing file is parsed as JSON,
/// anything else as a spec string.  Throws Error with context.
FaultSchedule load_fault_schedule(const std::string& arg);

/// Resolves a targeted event (fail-stop/degrade/recover) to node ids:
/// the event's level selects a node kind (1 = compute, 2 = I/O,
/// 3 = storage) and node_index picks within that kind's nodes in id
/// order (-1 = all).  Throws Error for bad levels or out-of-range
/// indices.
std::vector<topology::NodeId> resolve_fault_targets(
    const topology::HierarchyTree& tree, const FaultEvent& event);

/// One applied event, kept for trace emission and diagnostics.
struct AppliedFault {
  Nanoseconds at = 0;
  std::string description;  // e.g. "fail-stop io[0]"
};

/// Replay-time fault state, and the one interpretation of a fault event:
/// every other consumer reads what a schedule leaves behind from an
/// injector (see fault_end_state).  The engine calls advance_to() with
/// the globally earliest client clock before executing an iteration;
/// events whose timestamp has passed flip node state on the cache
/// hierarchy.
class FaultInjector {
 public:
  FaultInjector(FaultSchedule schedule, RetryPolicy retry,
                const topology::HierarchyTree& tree);

  /// Applies every event with `at <= now` to `cache` (may be null in
  /// unit tests; node bookkeeping still updates).
  void advance_to(Nanoseconds now, cache::MultiLevelCache* cache);

  /// Lazily consumed per-client share of global stall events: the total
  /// stall duration that became due and was not yet charged to `client`.
  Nanoseconds take_pending_stall(std::size_t client);

  /// Service-latency multiplier for a cache hit at `node` (1.0 when
  /// healthy).
  double latency_factor(topology::NodeId node) const {
    return latency_factor_[node];
  }
  /// True while `node` is fail-stopped (a fail-stop sets it, only a
  /// recover clears it; a degrade of a failed node leaves it failed).
  bool failed(topology::NodeId node) const { return failed_[node] != 0; }
  /// Capacity divisor of `node`'s cache (1.0 when healthy; a fail-stop
  /// or recover resets it).
  double capacity_divisor(topology::NodeId node) const {
    return capacity_divisor_[node];
  }

  double disk_error_rate() const { return disk_error_rate_; }
  double net_error_rate() const { return net_error_rate_; }

  /// Order-independent transient-error draw for attempt `attempt` of
  /// operation `op` by `client`: hashes (seed, client, op, attempt) so
  /// the verdict does not depend on replay interleaving.
  bool draw_error(std::uint64_t client, std::uint64_t op,
                  std::uint32_t attempt, double rate) const;

  const RetryPolicy& retry() const { return retry_; }

  std::uint64_t events_applied() const { return applied_.size(); }
  /// Applied-event log in application order (for trace emission).
  const std::vector<AppliedFault>& applied() const { return applied_; }

 private:
  void apply(const FaultEvent& event, cache::MultiLevelCache* cache);
  std::vector<topology::NodeId> targets(const FaultEvent& event) const;

  FaultSchedule schedule_;
  RetryPolicy retry_;
  const topology::HierarchyTree& tree_;
  std::size_t next_event_ = 0;

  std::vector<double> latency_factor_;    // by node id
  std::vector<char> failed_;              // by node id
  std::vector<double> capacity_divisor_;  // by node id
  double disk_error_rate_ = 0.0;
  double net_error_rate_ = 0.0;

  Nanoseconds total_stall_ = 0;
  std::vector<Nanoseconds> stall_charged_;  // per client

  std::vector<AppliedFault> applied_;
};

/// What `schedule` leaves `tree` in: an injector advanced past the
/// schedule's last event with no cache attached.  Throws Error when an
/// event names a node the tree lacks.
FaultInjector fault_end_state(FaultSchedule schedule,
                              const topology::HierarchyTree& tree);

}  // namespace mlsc::resilience
