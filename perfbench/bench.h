// Shared pieces of the benchmark's workloads: run options, the output
// checks, the metric sink, and the program-span reader.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "sim/engine.h"
#include "sim/experiment.h"
#include "spans.h"

namespace perfbench {

struct RunOptions {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 10.0;
  bool trace = false;
  std::string out_dir = "perfbench-out";
  /// Mapping threads for bigmap (paper and churn map with one).
  std::size_t threads = 1;
};

/// Output checks, counted per experiment (offline workloads) or per event
/// and end-state replay (churn).
struct Checks {
  std::size_t attempted = 0;
  std::size_t failed = 0;
  std::vector<std::string> failures;

  void record(bool ok, const std::string& what);
  /// A whole-run check that is not one of the attempted operations.
  void require(bool ok, const std::string& what);
};

/// Metric values by name.  Units and directions live in the tables in
/// main.cc; a workload fills what it measures.
using Values = std::map<std::string, double>;

/// Every simulated statistic a host-only change must leave identical:
/// exec time, stall breakdown, per-level hits and misses, BytesMoved, the
/// engine's event counters, sync edges and the per-level movement rows.
std::string sim_fingerprint(const mlsc::sim::EngineResult& engine,
                            std::size_t sync_edges,
                            const std::vector<mlsc::sim::LevelMovement>& movement);

/// The replay's stall components sum to io_time_total.
bool stalls_sum(const mlsc::sim::EngineResult& engine);

/// Every level's headroom is at most 100%.
bool headroom_bounded(const std::vector<mlsc::sim::LevelMovement>& movement);

/// Modelled per-layer values summed over replays: per-level miss %, the
/// engine's disk / peer / prefetch / write-back counts, and the share of
/// client time spent in sync waits and of I/O time spent in disk queues.
void engine_values(const std::vector<const mlsc::sim::EngineResult*>& runs,
                   Values& values);

/// One complete event of the program's own trace (obs::Span output).
struct ProgramSpan {
  std::string name;
  std::int64_t tid = 0;
  double ts_us = 0.0;
  double dur_us = 0.0;
  std::map<std::string, double> args;  // numeric args only
};

/// Reads the real-time complete events of a trace written by
/// obs::stop_trace.
std::vector<ProgramSpan> read_program_spans(const std::string& path);

/// Sum of the durations (ms) of the spans named `name`.
double span_ms(const std::vector<ProgramSpan>& spans, const std::string& name);

/// Timed passes per run: max(2, seconds / 20).  Every operation is
/// timed once per pass, a pass apart, and the fastest time is kept: on a
/// shared host, bursts of contention lasting seconds only ever slow an
/// operation down.
std::size_t timed_passes(double seconds);

/// Prints the traced pass's layers: calls, self and total ms, and each
/// layer's share of the pass.
void print_layers(const SpanLog& log, double pass_ms);

/// Whether to run the set-up once more: at least 3 times and until 0.5 s
/// of set-up time is spent, at most 2000 times.  setup_s is the median.
bool keep_setting_up(const std::vector<double>& setup_s);

/// Peak resident set size of this process, MiB.
double peak_rss_mib();

// The workloads.  Each fills end-to-end values (untraced run) or
// per-layer values (traced run) and counts its output checks.
void run_paper(const RunOptions& options, Values& values, Checks& checks);
void run_bigmap(const RunOptions& options, Values& values, Checks& checks);
void run_churn(const RunOptions& options, Values& values, Checks& checks);

}  // namespace perfbench
