// mlsc_headroom: one-shot data-movement headroom analysis.
//
// Runs one (workload, scheme, machine) experiment, computes the
// red-blue-pebble I/O lower bound per cache boundary (obs/lower_bound.h)
// and prints measured bytes-moved vs. the bound as a per-level table:
//
//   $ mlsc_headroom --workload sar --scheme inter
//   level  fast_memory  bytes_moved  io_lower_bound  headroom_pct
//   l1     2.0GiB       ...          ...             ...
//
// --bound-only skips the simulation and prints just the analyzer's view
// (compulsory vs. capacity term per level).  --json writes the standard
// mlsc-run-record-v1 document so the output plugs into mlsc_bench_diff
// and mlsc_report like any bench record.
#include <iostream>
#include <string>
#include <thread>

#include "obs/lower_bound.h"
#include "obs/metrics.h"
#include "obs/run_record.h"
#include "sim/experiment.h"
#include "support/argparse.h"
#include "support/log.h"
#include "support/string_util.h"
#include "support/table.h"
#include "support/units.h"
#include "workloads/registry.h"

#ifndef MLSC_GIT_SHA
#define MLSC_GIT_SHA "unknown"
#endif
#ifndef MLSC_BUILD_TYPE
#define MLSC_BUILD_TYPE "unknown"
#endif

namespace {

using namespace mlsc;

void print_usage(std::ostream& out, const char* argv0) {
  out << "usage: " << argv0
      << " --workload <name> [options]\n"
         "\n"
         "Per-level data-movement headroom: measured bytes crossing each\n"
         "cache boundary vs. the red-blue-pebble I/O lower bound.\n"
         "\n"
         "options:\n"
         "  --workload <name>     registry workload (or 'all'); required\n"
         "  --size-factor <f>     workload scale (default 1.0)\n"
         "  --scheme <s>          original|intra|inter|inter+sched "
         "(default inter)\n"
         "  --clients <n>         compute nodes (default 64)\n"
         "  --io-nodes <n>        I/O nodes (default 32)\n"
         "  --storage-nodes <n>   storage nodes (default 16)\n"
         "  --cache-mib <m>       per-node cache capacity at every level\n"
         "                        (default 32)\n"
         "  --chunk-kib <k>       chunk size (default 64)\n"
         "  --bound-only          skip the simulation; print the bound's\n"
         "                        compulsory/capacity terms per level\n"
         "  --json <path>         write an mlsc-run-record-v1 document\n"
         "  --log-level <l>       debug|info|warn|error|off\n";
}

sim::SchemeSpec parse_scheme(const std::string& name) {
  if (name == "original") return sim::SchemeSpec::original();
  if (name == "intra") return sim::SchemeSpec::intra();
  if (name == "inter") return sim::SchemeSpec::inter();
  if (name == "inter+sched") return sim::SchemeSpec::inter_scheduled();
  throw UsageError("unknown scheme '" + name +
                   "' (want original|intra|inter|inter+sched)");
}

std::string gib(std::uint64_t bytes) {
  return format_double(static_cast<double>(bytes) /
                           static_cast<double>(kGiB), 2) +
         " GiB";
}

}  // namespace

int main(int argc, char** argv) {
  std::string workload_name;
  std::string scheme_name = "inter";
  std::string json_path;
  double size_factor = 1.0;
  bool bound_only = false;
  sim::MachineConfig machine;

  try {
    ArgParser args(argc, argv);
    while (args.next()) {
      if (args.flag("--help") || args.flag("-h")) {
        print_usage(std::cout, argv[0]);
        return 0;
      } else if (args.value_flag("--workload")) {
        workload_name = args.value();
      } else if (args.value_flag("--size-factor")) {
        size_factor = args.value_double();
      } else if (args.value_flag("--scheme")) {
        scheme_name = args.value();
      } else if (args.value_flag("--clients")) {
        machine.clients = args.value_u64();
      } else if (args.value_flag("--io-nodes")) {
        machine.io_nodes = args.value_u64();
      } else if (args.value_flag("--storage-nodes")) {
        machine.storage_nodes = args.value_u64();
      } else if (args.value_flag("--cache-mib")) {
        const std::uint64_t bytes = args.value_u64() * kMiB;
        machine.client_cache_bytes = bytes;
        machine.io_cache_bytes = bytes;
        machine.storage_cache_bytes = bytes;
      } else if (args.value_flag("--chunk-kib")) {
        machine.chunk_size_bytes = args.value_u64() * kKiB;
        machine.stripe_size_bytes = machine.chunk_size_bytes;
      } else if (args.flag("--bound-only")) {
        bound_only = true;
      } else if (args.value_flag("--json")) {
        json_path = args.value();
      } else if (args.value_flag("--log-level")) {
        LogLevel level;
        if (!parse_log_level(args.value(), &level)) {
          throw UsageError("bad --log-level '" + args.value() + "'");
        }
        set_log_level(level);
      } else {
        args.unknown();
      }
    }
    if (workload_name.empty()) {
      throw UsageError("--workload is required");
    }
    parse_scheme(scheme_name);  // validate before doing any work
  } catch (const UsageError& e) {
    std::cerr << "error: " << e.what() << "\n\n";
    print_usage(std::cerr, argv[0]);
    return kUsageExitCode;
  }

  const sim::SchemeSpec scheme = parse_scheme(scheme_name);
  std::vector<std::string> names;
  if (workload_name == "all") {
    names = workloads::workload_names();
  } else {
    names.push_back(workload_name);
  }

  obs::RunRecord record;
  record.binary = "mlsc_headroom";
  record.machine = machine.to_string();
  record.apps = names;
  record.build_type = MLSC_BUILD_TYPE;
  record.git_sha = MLSC_GIT_SHA;
  record.hardware_threads = std::thread::hardware_concurrency();

  try {
    const auto specs = sim::machine_level_specs(machine);
    for (const std::string& name : names) {
      const auto workload = workloads::make_workload(name, size_factor);

      if (bound_only) {
        const auto bound =
            obs::compute_io_lower_bound(workload.program, specs);
        Table table({"level", "fast_memory", "compulsory_bytes",
                     "capacity_bytes", "io_lower_bound"});
        for (const auto& level : bound.levels) {
          table.add_row({level.level, gib(level.fast_memory_bytes),
                         std::to_string(level.compulsory_bytes),
                         std::to_string(level.capacity_bytes),
                         std::to_string(level.bound_bytes)});
        }
        std::cout << name << " (footprint >= "
                  << format_double(static_cast<double>(
                                       bound.footprint_bytes) /
                                       static_cast<double>(kMiB),
                                   2)
                  << " MiB):\n";
        table.print(std::cout);
        std::cout << "\n";
        record.tables.emplace_back(name + " bound", std::move(table));
        continue;
      }

      obs::ScopedPhase phase(record, name + "/" + scheme.name());
      const auto result = sim::run_experiment(workload, scheme, machine);
      Table table({"level", "fast_memory", "bytes_moved", "io_lower_bound",
                   "headroom_pct"});
      for (const auto& row : result.movement) {
        table.add_row({row.level, gib(row.fast_memory_bytes),
                       std::to_string(row.bytes_moved),
                       std::to_string(row.io_lower_bound),
                       format_double(row.headroom_pct, 2)});
      }
      std::cout << name << " / " << scheme.name() << ":\n";
      table.print(std::cout);
      std::cout << "\n";
      record.tables.emplace_back(name + " headroom", std::move(table));
    }
  } catch (const Error& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 1;
  }

  if (!json_path.empty()) {
    record.include_metrics = obs::metrics_enabled();
    if (!record.write_file(json_path)) {
      std::cerr << "error: cannot write " << json_path << "\n";
      return 1;
    }
    std::cerr << "[mlsc_headroom] wrote " << json_path << "\n";
  }
  return 0;
}
