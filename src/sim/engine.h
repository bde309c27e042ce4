// The parallel execution engine: replays per-client traces against the
// multi-level cache hierarchy with timestamp-ordered interleaving.
//
// Each client advances one iteration at a time (compute cost, then its
// chunk accesses, each charged the service latency of the level that
// satisfied it); the globally earliest client always runs next, so
// contention on shared caches and per-storage-node disk queues emerges
// from the interleaving, as it does on the real platform.
#pragma once

#include "cache/storage_cache.h"
#include "core/mapping.h"
#include "obs/cache_insight.h"
#include "sim/machine.h"
#include "sim/trace.h"

namespace mlsc::resilience {
class FaultInjector;
}  // namespace mlsc::resilience

namespace mlsc::sim {

/// Exact bytes-moved accounting at chunk granularity: where each access
/// was served from, plus the asynchronous traffic (prefetch fills and
/// dirty write-backs).  The boundary helpers give the bytes that crossed
/// the boundary *below* each cache level — the quantity the per-level
/// I/O lower bound (obs/lower_bound.h) is compared against.  Peer (
/// cooperative sibling) transfers stay inside the L1 aggregate, so they
/// appear in `from_peer` but cross no boundary.
struct BytesMoved {
  std::uint64_t from_l1 = 0;    // served by the client's own cache
  std::uint64_t from_l2 = 0;    // served by an I/O-node cache
  std::uint64_t from_l3 = 0;    // served by a storage-node cache
  std::uint64_t from_peer = 0;  // served by a sibling client cache
  std::uint64_t from_disk = 0;  // demand misses serviced by disk
  std::uint64_t prefetch = 0;   // readahead chunks pulled from disk
  std::uint64_t writeback = 0;  // dirty chunks flushed to disk

  /// Bytes that crossed the boundary below the L1 (client-cache) layer.
  std::uint64_t below_l1() const {
    return from_l2 + from_l3 + from_disk + prefetch + writeback;
  }
  /// Below the L2 (I/O-node) layer.
  std::uint64_t below_l2() const {
    return from_l3 + from_disk + prefetch + writeback;
  }
  /// Below the L3 (storage-node) layer: disk traffic only.
  std::uint64_t below_l3() const {
    return from_disk + prefetch + writeback;
  }

  BytesMoved& operator+=(const BytesMoved& other) {
    from_l1 += other.from_l1;
    from_l2 += other.from_l2;
    from_l3 += other.from_l3;
    from_peer += other.from_peer;
    from_disk += other.from_disk;
    prefetch += other.prefetch;
    writeback += other.writeback;
    return *this;
  }
};

struct EngineResult {
  cache::CacheStats l1;  // compute-node caches, aggregated
  cache::CacheStats l2;  // I/O-node caches
  cache::CacheStats l3;  // storage-node caches

  Nanoseconds exec_time = 0;       // latest client finish time
  Nanoseconds io_time_total = 0;   // Σ per-client I/O stall (incl. cache
                                   // access cycles, as the paper counts)
  Nanoseconds io_time_max = 0;     // worst single client
  Nanoseconds compute_time_total = 0;
  Nanoseconds sync_wait_total = 0;  // waiting on cross-client sync edges

  // Where the I/O stall time went (sums to io_time_total).
  Nanoseconds time_client_cache = 0;  // hits in the private (L1) cache
  Nanoseconds time_shared_cache = 0;  // hits at I/O or storage caches
  Nanoseconds time_peer_cache = 0;    // cooperative sibling hits
  Nanoseconds time_disk = 0;          // misses serviced by disks
  Nanoseconds time_disk_queue = 0;    // of which: waiting in disk queues
  Nanoseconds time_retry = 0;         // transient-error attempts + backoff
  Nanoseconds time_failover = 0;      // detecting/skirting failed caches

  /// Aggregated data movement, plus each client's share of the demand
  /// traffic it pulled from beyond its private cache (peer + L2 + L3 +
  /// disk bytes; prefetch and write-back traffic is asynchronous and
  /// only appears in the aggregate).
  BytesMoved bytes;
  std::vector<std::uint64_t> client_demand_bytes;

  std::uint64_t accesses = 0;
  std::uint64_t disk_requests = 0;
  std::uint64_t disk_writebacks = 0;   // dirty chunks flushed (write-back)
  std::uint64_t peer_hits = 0;         // cooperative-caching sibling hits
  std::uint64_t prefetches = 0;        // readahead chunks fetched

  // Fault-injection activity (all zero on healthy runs).
  std::uint64_t faults_applied = 0;    // schedule events that took effect
  std::uint64_t transient_errors = 0;  // attempts that drew an I/O error
  std::uint64_t retries = 0;           // re-attempts after an error
  std::uint64_t retry_timeouts = 0;    // accesses whose retry budget ran out
  std::uint64_t failovers = 0;         // failed caches detected and skipped
  /// Global pause time from stall events (remap downtime).  Charged to
  /// every live client's clock — part of exec_time, not of the I/O total.
  Nanoseconds fault_stall_total = 0;

  /// Cache-behavior explanation (MachineConfig::explain): per-level
  /// reuse-distance curves, miss classes and the eviction-attribution
  /// matrix.  Empty unless the replay ran with explain on.
  obs::InsightResult insight;

  /// Average per-client I/O latency — the paper's "I/O latency" metric.
  Nanoseconds io_time_mean(std::size_t clients) const {
    return clients == 0 ? 0 : io_time_total / clients;
  }
};

/// Replays `trace` on the machine.  `mapping` supplies the sync edges
/// and each item's nest, order and ranges, which the engine walks as the
/// item runs; the trace must have been generated from the same mapping.  `faults`
/// (optional) injects the fault schedule during the replay: failed
/// caches are skipped at a failover-detection cost, transient errors are
/// retried with capped exponential backoff under a per-access timeout
/// budget, and every penalty lands in the new retry/failover stall
/// components (the stall breakdown still sums to io_time_total).
EngineResult run_engine(const Trace& trace,
                        const core::MappingResult& mapping,
                        const MachineConfig& config,
                        const topology::HierarchyTree& tree,
                        resilience::FaultInjector* faults = nullptr);

}  // namespace mlsc::sim
