#include "sim/report.h"

#include <algorithm>
#include <ostream>
#include <tuple>

#include "support/check.h"
#include "support/string_util.h"

namespace mlsc::sim {
namespace {

std::string seconds(Nanoseconds ns) {
  return format_double(static_cast<double>(ns) / 1e9, 2) + " s";
}

double share(Nanoseconds part, Nanoseconds whole) {
  return whole == 0 ? 0.0
                    : 100.0 * static_cast<double>(part) /
                          static_cast<double>(whole);
}

/// One line per level naming its heaviest cross-client victim->evictor
/// cells of the eviction-attribution matrix (self-evictions excluded —
/// evicting your own chunk is capacity pressure, not interference).
void write_top_evictors(std::ostream& out, const obs::LevelInsight& level,
                        std::size_t num_clients) {
  struct Cell {
    std::size_t victim, evictor;
    std::uint64_t count;
  };
  std::vector<Cell> cells;
  for (std::size_t v = 0; v < num_clients; ++v) {
    for (std::size_t e = 0; e < num_clients; ++e) {
      const std::uint64_t count =
          level.eviction_matrix[v * num_clients + e];
      if (v != e && count > 0) cells.push_back({v, e, count});
    }
  }
  if (cells.empty()) return;
  std::sort(cells.begin(), cells.end(), [](const Cell& a, const Cell& b) {
    return a.count != b.count ? a.count > b.count
                              : std::tie(a.victim, a.evictor) <
                                    std::tie(b.victim, b.evictor);
  });
  out << "  " << level.level_name() << " cross-client evictions:";
  const std::size_t top = std::min<std::size_t>(cells.size(), 5);
  for (std::size_t i = 0; i < top; ++i) {
    out << (i == 0 ? " " : ", ") << "client " << cells[i].evictor
        << " evicted client " << cells[i].victim << " x" << cells[i].count;
  }
  if (cells.size() > top) {
    out << ", ... (" << cells.size() - top << " more pairs)";
  }
  out << "\n";
}

}  // namespace

std::vector<std::pair<std::string, Table>> report_tables(
    const ExperimentResult& result) {
  std::vector<std::pair<std::string, Table>> tables;

  Table levels({"level", "accesses", "hits", "misses", "miss %"});
  const cache::CacheStats* stats[] = {&result.engine.l1, &result.engine.l2,
                                      &result.engine.l3};
  const char* names[] = {"L1 (compute)", "L2 (I/O)", "L3 (storage)"};
  for (int i = 0; i < 3; ++i) {
    levels.add_row({names[i], std::to_string(stats[i]->accesses),
                    std::to_string(stats[i]->hits),
                    std::to_string(stats[i]->misses),
                    format_double(stats[i]->miss_rate() * 100, 1)});
  }
  tables.emplace_back("cache levels", std::move(levels));

  const auto& e = result.engine;
  Table where({"I/O stall component", "time (s)", "share %"});
  auto stall_row = [&](const std::string& component, Nanoseconds time) {
    where.add_row({component,
                   format_double(static_cast<double>(time) / 1e9, 4),
                   format_double(share(time, e.io_time_total), 1)});
  };
  stall_row("client cache hits", e.time_client_cache);
  stall_row("shared cache hits", e.time_shared_cache);
  if (e.peer_hits > 0) stall_row("peer cache hits", e.time_peer_cache);
  stall_row("disk service+queue", e.time_disk);
  stall_row("  of which queueing", e.time_disk_queue);
  // Degraded-mode components appear only when faults produced them, so
  // healthy-run reports (and their committed baselines) are unchanged.
  if (e.time_retry > 0) stall_row("transient-error retries", e.time_retry);
  if (e.time_failover > 0) stall_row("failover detection", e.time_failover);
  tables.emplace_back("io stall breakdown", std::move(where));

  // Measured boundary traffic vs. the red-blue-pebble lower bound.
  // Column names are stable metric keys for the bench diff: the
  // headroom_pct column is guarded (drift hard-fails, DESIGN.md §16).
  if (!result.movement.empty()) {
    Table movement({"level", "bytes_moved", "io_lower_bound",
                    "headroom_pct"});
    for (const auto& row : result.movement) {
      movement.add_row({row.level, std::to_string(row.bytes_moved),
                        std::to_string(row.io_lower_bound),
                        format_double(row.headroom_pct, 2)});
    }
    tables.emplace_back("data movement", std::move(movement));
  }

  // Miss classification from the explanation observer (--explain,
  // DESIGN.md §18).  Column names are stable metric keys; everything in
  // this table is deterministic, and the "insight" title routes it into
  // the bench diff's guarded set (any drift hard-fails).
  if (!e.insight.empty()) {
    Table insight({"level", "misses", "compulsory", "capacity",
                   "interference", "interference_miss_pct"});
    for (const auto& level : e.insight.levels) {
      insight.add_row({level.level_name(), std::to_string(level.misses),
                       std::to_string(level.compulsory),
                       std::to_string(level.capacity),
                       std::to_string(level.interference),
                       format_double(level.interference_miss_pct(), 2)});
    }
    tables.emplace_back("insight", std::move(insight));
  }

  if (e.faults_applied > 0) {
    Table faults({"fault metric", "value"});
    faults.add_row({"schedule events applied",
                    std::to_string(e.faults_applied)});
    faults.add_row({"transient errors", std::to_string(e.transient_errors)});
    faults.add_row({"retries", std::to_string(e.retries)});
    faults.add_row({"retry timeouts", std::to_string(e.retry_timeouts)});
    faults.add_row({"failovers", std::to_string(e.failovers)});
    faults.add_row({"retry time (s)", seconds(e.time_retry)});
    faults.add_row({"failover time (s)", seconds(e.time_failover)});
    faults.add_row({"fault stall (s)", seconds(e.fault_stall_total)});
    faults.add_row({"remapped", result.remapped ? "yes" : "no"});
    if (result.remapped) {
      faults.add_row({"remap trigger", result.remap_reason});
      faults.add_row({"remap pause", format_time(result.remap_pause)});
    }
    tables.emplace_back("resilience", std::move(faults));
  }

  Table summary({"workload", "scheme", "io_latency_s", "exec_time_s",
                 "disk_requests", "disk_writebacks", "peer_hits",
                 "prefetches", "sync_edges"});
  summary.add_row(
      {result.workload, result.scheme,
       format_double(static_cast<double>(result.io_latency) / 1e9, 4),
       format_double(static_cast<double>(result.exec_time) / 1e9, 4),
       std::to_string(e.disk_requests), std::to_string(e.disk_writebacks),
       std::to_string(e.peer_hits), std::to_string(e.prefetches),
       std::to_string(result.sync_edges)});
  tables.emplace_back("summary", std::move(summary));
  return tables;
}

void write_report(std::ostream& out, const ExperimentResult& result,
                  const MachineConfig& config) {
  out << "workload: " << result.workload << "\n"
      << "scheme:   " << result.scheme << "\n"
      << "machine:  " << config.to_string() << "\n\n";

  if (!result.fault_summary.empty()) {
    out << "faults:   " << result.fault_summary << "\n";
  }

  const auto tables = report_tables(result);
  tables[0].second.print(out);  // cache levels
  out << "\n";
  tables[1].second.print(out);  // io stall breakdown
  for (const auto& [title, table] : tables) {
    if (title == "resilience" || title == "data movement" ||
        title == "insight") {
      out << "\n";
      table.print(out);
    }
    if (title == "insight") {
      for (const auto& level : result.engine.insight.levels) {
        write_top_evictors(out, level, result.engine.insight.num_clients);
      }
    }
  }

  const auto& e = result.engine;
  out << "\ndisk requests: " << e.disk_requests
      << ", write-backs: " << e.disk_writebacks
      << ", prefetches: " << e.prefetches << ", sync edges: "
      << result.sync_edges << " (wait " << seconds(e.sync_wait_total)
      << " total)\n"
      << "I/O latency (mean/client): " << seconds(result.io_latency)
      << ", execution time: " << seconds(result.exec_time) << "\n";
}

Table comparison_table(const std::vector<ExperimentResult>& results) {
  MLSC_CHECK(!results.empty(), "nothing to compare");
  for (const auto& r : results) {
    MLSC_CHECK(r.workload == results.front().workload,
               "comparison requires one workload");
  }
  Table table({"scheme", "L1 miss %", "L2 miss %", "L3 miss %", "disk reqs",
               "I/O latency", "exec time", "I/O (norm)", "exec (norm)"});
  const auto& base = results.front();
  for (const auto& r : results) {
    table.add_row(
        {r.scheme, format_double(r.l1_miss_rate * 100, 1),
         format_double(r.l2_miss_rate * 100, 1),
         format_double(r.l3_miss_rate * 100, 1),
         std::to_string(r.engine.disk_requests), seconds(r.io_latency),
         seconds(r.exec_time),
         format_double(static_cast<double>(r.io_latency) /
                           static_cast<double>(base.io_latency),
                       3),
         format_double(static_cast<double>(r.exec_time) /
                           static_cast<double>(base.exec_time),
                       3)});
  }
  return table;
}

std::vector<ExperimentResult> run_all_schemes(
    const workloads::Workload& workload, const MachineConfig& config) {
  std::vector<ExperimentResult> results;
  for (const core::PipelineOptions& scheme :
       {core::PipelineOptions::original(), core::PipelineOptions::intra(),
        core::PipelineOptions::inter(),
        core::PipelineOptions::inter_scheduled()}) {
    results.push_back(run_experiment(workload, scheme, config));
  }
  return results;
}

}  // namespace mlsc::sim
