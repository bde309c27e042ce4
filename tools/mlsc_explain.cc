// mlsc_explain: one-shot cache-behavior diagnosis (DESIGN.md §18).
//
// Runs one (workload, scheme, machine) experiment with the cache-insight
// profiler attached and prints, per cache level, the miss classification
// (compulsory / capacity / inter-client interference), the interference
// share, and the heaviest eviction victim->evictor pairs:
//
//   $ mlsc_explain --workload sar --scheme inter
//   level  accesses  misses  compulsory  capacity  interference  interference_miss_pct
//   l1     ...
//
// The run record written by --json additionally carries the full
// "insight" section — miss-ratio-vs-capacity curves from one replay
// (one point per log-spaced capacity up to 4x the configured size) and
// the complete eviction-attribution matrix — which mlsc_report renders
// as the "Explain" panel and mlsc_bench_diff guards as deterministic
// insight.* metrics.
#include <algorithm>
#include <iostream>
#include <string>
#include <thread>
#include <tuple>
#include <vector>

#include "obs/cache_insight.h"
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
         "Why does this mapping miss?  Classifies every miss at every\n"
         "cache level as compulsory, capacity, or inter-client\n"
         "interference, and attributes evictions to the client that\n"
         "caused them (DESIGN.md \xC2\xA7" "18).\n"
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
         "  --threads <n>         mapping-stage threads; 0 = all cores\n"
         "                        (insight is identical for any value)\n"
         "  --json <path>         write an mlsc-run-record-v1 document\n"
         "                        with the full insight section\n"
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

/// The heaviest cross-client victim->evictor cells of one level's
/// eviction-attribution matrix (self-evictions excluded — evicting your
/// own chunk is capacity pressure, not interference).
void print_top_evictors(const obs::LevelInsight& level,
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
  std::cout << "  " << level.level_name() << " cross-client evictions:";
  const std::size_t top = std::min<std::size_t>(cells.size(), 5);
  for (std::size_t i = 0; i < top; ++i) {
    std::cout << (i == 0 ? " " : ", ") << "client " << cells[i].evictor
              << " evicted client " << cells[i].victim << " x"
              << cells[i].count;
  }
  if (cells.size() > top) {
    std::cout << ", ... (" << cells.size() - top << " more pairs)";
  }
  std::cout << "\n";
}

}  // namespace

int main(int argc, char** argv) {
  std::string workload_name;
  std::string scheme_name = "inter";
  std::string json_path;
  double size_factor = 1.0;
  sim::MachineConfig machine;
  sim::SchemeSpec scheme = sim::SchemeSpec::inter();

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
      } else if (args.value_flag("--threads")) {
        scheme.num_threads = args.value_u64();
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
    const std::size_t threads = scheme.num_threads;
    scheme = parse_scheme(scheme_name);
    scheme.num_threads = threads;
  } catch (const UsageError& e) {
    std::cerr << "error: " << e.what() << "\n\n";
    print_usage(std::cerr, argv[0]);
    return kUsageExitCode;
  }

  machine.explain = true;  // the whole point of this tool
  std::vector<std::string> names;
  if (workload_name == "all") {
    names = workloads::workload_names();
  } else {
    names.push_back(workload_name);
  }

  obs::RunRecord record;
  record.binary = "mlsc_explain";
  record.machine = machine.to_string();
  record.apps = names;
  record.build_type = MLSC_BUILD_TYPE;
  record.git_sha = MLSC_GIT_SHA;
  record.hardware_threads = std::thread::hardware_concurrency();

  try {
    for (const std::string& name : names) {
      const auto workload = workloads::make_workload(name, size_factor);
      obs::ScopedPhase phase(record, name + "/" + scheme.name());
      const auto result = sim::run_experiment(workload, scheme, machine);
      const obs::InsightResult& insight = result.engine.insight;

      Table table({"level", "accesses", "misses", "compulsory", "capacity",
                   "interference", "interference_miss_pct"});
      for (const auto& level : insight.levels) {
        table.add_row({level.level_name(), std::to_string(level.accesses),
                       std::to_string(level.misses),
                       std::to_string(level.compulsory),
                       std::to_string(level.capacity),
                       std::to_string(level.interference),
                       format_double(level.interference_miss_pct(), 2)});
      }
      std::cout << name << " / " << scheme.name() << ":\n";
      table.print(std::cout);
      for (const auto& level : insight.levels) {
        print_top_evictors(level, insight.num_clients);
      }
      std::cout << "\n";
      record.tables.emplace_back(name + " insight", std::move(table));
      // The full curves + matrix go to the record's insight section; a
      // multi-workload run keeps the last one (diff the per-workload
      // tables instead, or run one workload per record).
      record.insight = insight;
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
    std::cerr << "[mlsc_explain] wrote " << json_path << "\n";
  }
  return 0;
}
