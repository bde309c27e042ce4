// Shared harness for the per-table / per-figure benchmark binaries.
//
// Each binary reproduces one table or figure of the paper's evaluation:
// it runs the required (workload, scheme, machine) experiments and prints
// the same rows/series the paper reports, normalized to the original
// version where the paper normalizes.  Environment knobs:
//   MLSC_BENCH_APPS=hf,sar,...   restrict the application list
//   MLSC_BENCH_CSV=1             additionally print CSV blocks
// Command-line flags (parse_common_flags):
//   --json=<path>     also write a run record (mlsc-run-record-v1,
//                     DESIGN.md §13) to <path>: every printed table,
//                     per-experiment wall-clock phases, run metadata
//                     (machine, apps, threads, build type, repetitions,
//                     seed), and a metrics snapshot when --metrics is on
//   --trace=<path>    record a Chrome trace_event timeline of the run
//   --metrics=<path>  dump the metrics registry as JSON on exit
//   --reps=N          timing repetitions for benches that time code
//                     (stamped into the run record for the diff tool's
//                     noise margin; default 1)
//   --explain         attach the cache-insight profiler to every
//                     experiment; with --json the record gains an
//                     "insight" table of per-level miss classes
//                     (DESIGN.md §18)
//   --log-level=L     debug|info|warn|error|off (default warn)
#pragma once

#include <cstdint>
#include <functional>
#include <iostream>
#include <string>
#include <vector>

#include "sim/experiment.h"
#include "support/argparse.h"
#include "support/string_util.h"
#include "support/table.h"
#include "workloads/registry.h"

namespace mlsc::bench {

/// Applications to run: the full Table 2 suite unless MLSC_BENCH_APPS
/// names a subset, intersected with `defaults` when given.
std::vector<std::string> bench_apps(
    const std::vector<std::string>& defaults = {});

/// True when CSV output was requested.
bool csv_requested();

/// Parses the flags shared by every bench binary (--json=<path>,
/// --trace=<path>, --metrics=<path>); `default_json`, when given, is
/// the --json path used when the command line names none.  Without
/// `own`, other arguments are left alone.  With it, each other argument goes to `own`, which
/// consumes it through the parser (value_flag, value_u64_in, ...) and
/// returns true, or returns false for an argument it does not know.
/// Misuse prints the error and the shared usage and exits
/// kUsageExitCode.  When --json is given, every table passed to
/// print_table is collected and the whole set is written to <path> on
/// exit (or via write_json_output); --trace/--metrics flush on exit too.
void parse_common_flags(int argc, char** argv,
                        const char* default_json = nullptr,
                        const std::function<bool(ArgParser&)>& own = {});

/// Path given via --json=<path>, or "" when JSON output was not requested.
const std::string& json_output_path();

/// Timing repetitions requested via --reps=N (default 1).
std::size_t repetitions();

/// Stamps the pinned RNG seed into the run record metadata.
void set_record_seed(std::uint64_t seed);

/// Stamps the workload/app names into the run record metadata.  Benches
/// that use bench_apps() get this automatically; synthetic-input benches
/// (bench_scaling, bench_similarity) call it with their generator names
/// so the record's "apps" field is never empty.
void set_record_apps(const std::vector<std::string>& apps);

/// Appends a named wall-clock phase to the run record (no-op without
/// --json).  run() records one phase per experiment automatically.
void record_phase(const std::string& name, double wall_ms);

/// Writes the collected tables to the --json path now (no-op without
/// --json; also runs automatically at exit).
void write_json_output();

/// Queues a table for the JSON document without printing it (no-op when
/// --json was not given).  print_table does this automatically.
void queue_json_table(const Table& table, const std::string& title = "");

/// Prints the standard header: paper reference, machine description, and
/// the simulated scale note.
void print_header(const std::string& title, const sim::MachineConfig& config);

/// Prints a table, plus its CSV form when requested; with --json the table
/// is also queued for the JSON document under `title`.
void print_table(const Table& table, const std::string& title = "");

/// Runs one experiment, with a progress note on stderr.
sim::ExperimentResult run(const workloads::Workload& workload,
                          const core::PipelineOptions& scheme,
                          const sim::MachineConfig& config);

/// Formats a ratio like the paper's normalized plots (original = 1.0).
std::string norm(double value, double original);

}  // namespace mlsc::bench
