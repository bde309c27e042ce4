// End-to-end experiment runner: workload + scheme + machine -> metrics.
//
// This is what every benchmark binary calls: it builds the hierarchy
// tree and data space, runs the mapping pipeline for the requested
// scheme, plans the trace, replays it on the engine, and packages the
// three result families the paper reports (miss rates per cache level,
// I/O latency, total execution time).
#pragma once

#include <iosfwd>
#include <string>

#include "core/pipeline.h"
#include "obs/lower_bound.h"
#include "resilience/fault.h"
#include "resilience/remap.h"
#include "sim/engine.h"
#include "sim/machine.h"
#include "workloads/workload.h"

namespace mlsc::sim {

/// Degraded-mode replay: a fault schedule plus the retry and remap
/// policies governing how the run copes with it.
struct ResilienceSpec {
  resilience::FaultSchedule schedule;
  resilience::RetryPolicy retry;
  /// Selects between plain degraded replay and remap-on-failure: when
  /// the schedule leaves a node fail-stopped (resilience::decide_remap),
  /// the mapping's work is moved off the affected clients
  /// (resilience::remap_mapping) and the run is charged
  /// resilience::kRemapPauseNs of downtime at the trigger time.
  bool remap_on_failure = false;
};

/// Measured traffic across the boundary below one cache level, next to
/// the red-blue-pebble lower bound for that boundary (obs/lower_bound.h)
/// and the ratio between them.  headroom_pct == 100 means the run moved
/// exactly the provably-minimal number of bytes; lower values mean the
/// mapping still moves more than it must.
struct LevelMovement {
  std::string level;                    // "l1", "l2", "l3"
  std::uint64_t fast_memory_bytes = 0;  // aggregate capacity at/above it
  std::uint64_t bytes_moved = 0;        // measured boundary traffic
  std::uint64_t io_lower_bound = 0;     // provable minimum traffic
  double headroom_pct = 0.0;            // 100 * bound / moved

  static double headroom(std::uint64_t bound, std::uint64_t moved) {
    if (moved == 0) return 100.0;  // nothing moved: trivially optimal
    return 100.0 * static_cast<double>(bound) / static_cast<double>(moved);
  }
};

struct ExperimentResult {
  std::string workload;
  std::string scheme;

  double l1_miss_rate = 0.0;
  double l2_miss_rate = 0.0;
  double l3_miss_rate = 0.0;

  Nanoseconds io_latency = 0;  // mean per-client I/O time
  Nanoseconds exec_time = 0;   // parallel completion time

  EngineResult engine;  // full counters for deeper analysis
  std::size_t sync_edges = 0;  // cross-client constraints in the mapping

  /// Per-level movement vs. the I/O lower bound (l1, l2, l3 order).
  std::vector<LevelMovement> movement;

  // Resilience outcome (defaults on healthy runs).
  std::string fault_summary;   // schedule actually replayed ("" = none)
  bool remapped = false;       // work moved off failed clients
  std::string remap_reason;    // what triggered the remap
  Nanoseconds remap_pause = 0;  // downtime charged for the remap

  void report(std::ostream& out) const;
};

/// Runs one (workload, scheme, machine) experiment.  `resilience`
/// (optional) replays the run under its fault schedule; with
/// remap-on-failure enabled the mapping's work is moved off the failed
/// clients and the remap's downtime is charged as a stall.
ExperimentResult run_experiment(const workloads::Workload& workload,
                                const core::PipelineOptions& scheme,
                                const MachineConfig& config,
                                const ResilienceSpec* resilience = nullptr);

/// Ratio helpers for the paper's normalized plots (original == 1.0).
double normalized(double value, double original);

/// The three cache boundaries of `config` for the I/O lower bound: the
/// fast memory above the boundary below level L is the aggregate
/// capacity of every cache at L and above (all client caches for l1,
/// plus all I/O-node caches for l2, plus all storage-node caches for
/// l3 — cooperative or not, the pebble game allows any of them to hold
/// data).
std::vector<obs::LevelSpec> machine_level_specs(const MachineConfig& config);

/// Per-level measured-vs-bound movement rows for a finished engine run.
std::vector<LevelMovement> movement_vs_bound(
    const workloads::Workload& workload, const MachineConfig& config,
    const EngineResult& engine);

}  // namespace mlsc::sim
