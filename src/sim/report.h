// Experiment reporting: render one experiment or a scheme comparison as
// aligned tables (or CSV) — what the examples and the CLI print, and a
// convenient API for downstream analysis scripts.
#pragma once

#include <iosfwd>
#include <string>
#include <utility>
#include <vector>

#include "sim/experiment.h"
#include "support/table.h"

namespace mlsc::sim {

/// A full single-experiment report: miss rates per level, the I/O stall
/// breakdown (client cache / shared caches / peers / disk / queueing),
/// disk traffic, synchronization, and timing.  With insight attached
/// (MachineConfig::explain), the miss-class table is followed by each
/// level's five heaviest cross-client victim->evictor pairs.
void write_report(std::ostream& out, const ExperimentResult& result,
                  const MachineConfig& config);

/// The report's tables as (title, table) pairs — "cache levels" (per-
/// level accesses/hits/misses/miss %), "io stall breakdown" (per-
/// component seconds and share), and a one-row "summary" (latency,
/// execution time, disk traffic, sync).  write_report prints these;
/// mlsc_map bundles them into its --json run record, where numeric
/// cells become diffable metrics and mlsc_report renders them.
std::vector<std::pair<std::string, Table>> report_tables(
    const ExperimentResult& result);

/// Side-by-side comparison of several results on one workload, with a
/// "normalized vs first" column block (the paper's presentation style).
/// All results must be for the same workload.
Table comparison_table(const std::vector<ExperimentResult>& results);

/// The comparison as CSV (same cells as comparison_table).
void write_comparison_csv(std::ostream& out,
                          const std::vector<ExperimentResult>& results);

/// Runs every scheme of the paper's evaluation on one workload and
/// returns the results in order: original, intra, inter, inter+sched.
std::vector<ExperimentResult> run_all_schemes(
    const workloads::Workload& workload, const MachineConfig& config);

}  // namespace mlsc::sim
