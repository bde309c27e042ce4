// The unified run record: one JSON document bundling everything one
// invocation of a bench binary (or mlsc_map) produced — the printed
// result tables, per-phase wall-clock timings, machine/build metadata,
// and a snapshot of the metrics registry when metrics were enabled.
//
// Run records are the currency of the regression observatory
// (DESIGN.md §13): bench binaries write them via --json, committed
// baselines (BENCH_*.json) are run records, `tools/mlsc_bench_diff`
// compares two of them, and `tools/mlsc_report` renders one as HTML.
#pragma once

#include <chrono>
#include <cstdint>
#include <iosfwd>
#include <string>
#include <utility>
#include <vector>

#include "obs/cache_insight.h"
#include "support/table.h"

namespace mlsc::obs {

/// Schema tag written into every record; bump on incompatible changes.
inline constexpr const char* kRunRecordSchema = "mlsc-run-record-v1";

struct RunRecord {
  std::string binary;

  // Metadata: identifies the configuration the numbers came from.
  std::string machine;             // MachineConfig::to_string(), if any
  std::vector<std::string> apps;   // application subset that ran
  std::string build_type;          // CMAKE_BUILD_TYPE
  std::string git_sha;             // commit the binary was built from
  unsigned hardware_threads = 0;
  std::size_t repetitions = 1;     // timing repetitions (--reps)
  std::uint64_t seed = 0;          // pinned RNG seed, when the run has one
  bool has_seed = false;

  /// Named wall-clock phases in execution order (milliseconds).
  std::vector<std::pair<std::string, double>> phases;

  /// The printed result tables, in print order, each under a title.
  std::vector<std::pair<std::string, Table>> tables;

  /// Cache-behavior explanation (DESIGN.md §18): written as an
  /// "insight" section when non-empty — per-level miss classes, the
  /// capacity curves and the eviction-attribution matrix.
  InsightResult insight;

  /// Snapshot Registry::global() into a "metrics" section on write.
  bool include_metrics = false;

  void add_phase(std::string name, double wall_ms) {
    phases.emplace_back(std::move(name), wall_ms);
  }

  /// The complete mlsc-run-record-v1 document.
  void write_json(std::ostream& out) const;

  /// write_json to `path`; returns false (and logs to stderr) on I/O
  /// failure.
  bool write_file(const std::string& path) const;
};

/// Measures the enclosing scope and appends it to `record.phases`.
class ScopedPhase {
 public:
  ScopedPhase(RunRecord& record, std::string name)
      : record_(record),
        name_(std::move(name)),
        start_(std::chrono::steady_clock::now()) {}
  ~ScopedPhase() {
    record_.add_phase(
        std::move(name_),
        std::chrono::duration<double, std::milli>(
            std::chrono::steady_clock::now() - start_)
            .count());
  }
  ScopedPhase(const ScopedPhase&) = delete;
  ScopedPhase& operator=(const ScopedPhase&) = delete;

 private:
  RunRecord& record_;
  std::string name_;
  std::chrono::steady_clock::time_point start_;
};

}  // namespace mlsc::obs
