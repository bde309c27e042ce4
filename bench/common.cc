#include "bench/common.h"

#include <sys/utsname.h>

#include <chrono>
#include <iostream>
#include <cstdlib>
#include <thread>
#include <utility>

#include "obs/metrics.h"
#include "obs/run_record.h"
#include "obs/trace.h"
#include "support/argparse.h"
#include "support/check.h"
#include "support/log.h"
#include "support/string_util.h"
#include "support/units.h"

#ifndef MLSC_BUILD_TYPE
#define MLSC_BUILD_TYPE "unknown"
#endif
#ifndef MLSC_GIT_SHA
#define MLSC_GIT_SHA "unknown"
#endif

namespace mlsc::bench {

namespace {

struct JsonState {
  std::string path;
  bool written = false;
  obs::RunRecord record;  // accumulates tables / phases / metadata
  std::size_t repetitions = 1;
  // Observability flags.
  std::string metrics_path;
  bool trace_started = false;
  // Per-level bytes-moved vs. lower-bound rows, one triple per
  // experiment run() executed; written as one "data movement" table so
  // every bench binary's record carries headroom without per-binary
  // plumbing.
  Table movement{{"experiment", "level", "bytes_moved", "io_lower_bound",
                  "headroom_pct"}};
  // With --explain, one row per (experiment, level) of the miss
  // classification; written as one "insight" table on exit.
  bool explain = false;
  Table insight{{"experiment", "level", "misses", "compulsory", "capacity",
                 "interference", "interference_miss_pct"}};
};

JsonState& json_state() {
  static JsonState state;
  return state;
}

/// atexit hook: closes the trace session and dumps the metrics registry.
void flush_observability() {
  JsonState& state = json_state();
  if (state.trace_started) {
    mlsc::obs::stop_trace();
    state.trace_started = false;
  }
  if (!state.metrics_path.empty()) {
    mlsc::obs::write_metrics_file(state.metrics_path);
    state.metrics_path.clear();
  }
}

}  // namespace

void parse_common_flags(int argc, char** argv) {
  JsonState& state = json_state();
  if (argc > 0) {
    state.record.binary = argv[0];
    const std::size_t slash = state.record.binary.find_last_of('/');
    if (slash != std::string::npos) {
      state.record.binary = state.record.binary.substr(slash + 1);
    }
  }
  state.record.build_type = MLSC_BUILD_TYPE;
  state.record.git_sha = MLSC_GIT_SHA;
  state.record.hardware_threads = std::thread::hardware_concurrency();
  // Default machine description from uname; benches that print a header
  // overwrite it with the simulated machine config.  This keeps records
  // from headerless benches (bench_scaling, bench_similarity) from
  // carrying an empty "machine" field.
  struct utsname uts{};
  if (uname(&uts) == 0) {
    state.record.machine = std::string(uts.sysname) + " " + uts.release +
                           " " + uts.machine;
  }
  // Shared flag mechanics (support/argparse): --flag=value and
  // "--flag value" both work; anything not a shared flag is left alone
  // for the binary (bench binaries take no other arguments).
  CommonToolOptions common;
  common.accept_reps = true;
  common.accept_explain = true;
  try {
    ArgParser args(argc, argv);
    while (args.next()) {
      if (!common.match(args)) continue;
    }
  } catch (const UsageError& e) {
    std::cerr << "error: " << e.what() << "\n"
              << CommonToolOptions::usage(/*with_reps=*/true,
                                          /*with_explain=*/true);
    std::exit(kUsageExitCode);
  }
  state.explain = common.explain;
  state.path = common.json_path;
  state.metrics_path = common.metrics_path;
  state.repetitions = common.repetitions;
  const std::string trace_path = common.trace_path;
  state.record.repetitions = state.repetitions;
  if (!state.path.empty()) std::atexit(write_json_output);
  if (!trace_path.empty()) {
    mlsc::obs::start_trace(trace_path);
    state.trace_started = true;
  }
  if (!state.metrics_path.empty()) mlsc::obs::set_metrics_enabled(true);
  if (state.trace_started || !state.metrics_path.empty()) {
    std::atexit(flush_observability);
  }
}

const std::string& json_output_path() { return json_state().path; }

std::size_t repetitions() { return json_state().repetitions; }

void set_record_seed(std::uint64_t seed) {
  JsonState& state = json_state();
  state.record.seed = seed;
  state.record.has_seed = true;
}

void set_record_apps(const std::vector<std::string>& apps) {
  json_state().record.apps = apps;
}

void record_phase(const std::string& name, double wall_ms) {
  JsonState& state = json_state();
  if (!state.path.empty()) state.record.add_phase(name, wall_ms);
}

void write_json_output() {
  JsonState& state = json_state();
  if (state.path.empty() || state.written) return;
  if (state.movement.num_rows() > 0) {
    state.record.tables.emplace_back("data movement", state.movement);
  }
  if (state.insight.num_rows() > 0) {
    state.record.tables.emplace_back("insight", state.insight);
  }
  state.record.include_metrics = mlsc::obs::metrics_enabled();
  if (!state.record.write_file(state.path)) return;
  state.written = true;
  std::cerr << "[bench] wrote " << state.path << "\n";
}

std::vector<std::string> bench_apps(const std::vector<std::string>& defaults) {
  std::vector<std::string> base =
      defaults.empty() ? workloads::workload_names() : defaults;
  const char* env = std::getenv("MLSC_BENCH_APPS");
  if (env == nullptr || *env == '\0') {
    json_state().record.apps = base;
    return base;
  }
  std::vector<std::string> out;
  for (const auto& name : split(env, ',')) {
    for (const auto& known : base) {
      if (known == name) out.push_back(name);
    }
  }
  if (out.empty()) out = base;
  json_state().record.apps = out;
  return out;
}

bool csv_requested() {
  const char* env = std::getenv("MLSC_BENCH_CSV");
  return env != nullptr && *env != '\0' && std::string(env) != "0";
}

void print_header(const std::string& title,
                  const sim::MachineConfig& config) {
  json_state().record.machine = config.to_string();
  std::cout << "== " << title << " ==\n"
            << "paper: Kandemir et al., Computation Mapping for Multi-Level "
               "Storage Cache Hierarchies, HPDC'10\n"
            << "machine: " << config.to_string() << "\n"
            << "scale: capacities and data sets are 1/64 of the paper's "
               "(DESIGN.md §5); node counts and chunk size are at paper "
               "values\n\n";
}

void print_table(const Table& table, const std::string& title) {
  table.print(std::cout);
  if (csv_requested()) {
    std::cout << "\n[csv]\n";
    table.print_csv(std::cout);
  }
  std::cout << "\n";
  queue_json_table(table, title);
}

void queue_json_table(const Table& table, const std::string& title) {
  JsonState& state = json_state();
  if (!state.path.empty()) state.record.tables.emplace_back(title, table);
}

sim::ExperimentResult run(const workloads::Workload& workload,
                          const core::PipelineOptions& scheme,
                          const sim::MachineConfig& config) {
  std::cerr << "[bench] " << workload.name << " / " << scheme.name() << " / "
            << config.to_string() << "\n";
  JsonState& state = json_state();
  sim::MachineConfig effective = config;
  if (state.explain) effective.explain = true;
  const auto start = std::chrono::steady_clock::now();
  auto result = run_experiment(workload, scheme, effective);
  record_phase(workload.name + "/" + scheme.name(),
               std::chrono::duration<double, std::milli>(
                   std::chrono::steady_clock::now() - start)
                   .count());
  if (!state.path.empty()) {
    for (const auto& row : result.movement) {
      state.movement.add_row(
          {workload.name + "/" + scheme.name(), row.level,
           std::to_string(row.bytes_moved),
           std::to_string(row.io_lower_bound),
           format_double(row.headroom_pct, 2)});
    }
    for (const auto& level : result.engine.insight.levels) {
      state.insight.add_row(
          {workload.name + "/" + scheme.name(), level.level_name(),
           std::to_string(level.misses), std::to_string(level.compulsory),
           std::to_string(level.capacity),
           std::to_string(level.interference),
           format_double(level.interference_miss_pct(), 2)});
    }
  }
  return result;
}

std::string norm(double value, double original) {
  if (original == 0.0) return "n/a";
  return format_double(value / original, 3);
}

}  // namespace mlsc::bench
