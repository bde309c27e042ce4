// mlsc_map — command-line driver for the mapping library.
//
// Maps a workload onto a configurable storage cache hierarchy with any
// of the paper's schemes and reports miss rates, latencies, the mapping
// itself, or the generated per-client code.  --report full adds measured
// data movement against the I/O lower bound per cache level and, with
// --explain, each level's miss classes and its heaviest cross-client
// evictions; --report bound prints the lower bound alone, without
// simulating.
//
// Usage:
//   mlsc_map [--workload NAME] [--scheme original|intra|inter|sched]
//            [--clients N] [--io N] [--storage N]
//            [--chunk BYTES] [--policy lru|fifo|clock|lfu|2q|mq]
//            [--placement access|eviction|exclusive]
//            [--balance FRACTION] [--alpha A] [--beta B]
//            [--write-back] [--cooperative] [--readahead N]
//            [--size-factor F] [--threads N] [--cache-mib M]
//            [--faults FILE|SPEC] [--remap] [--explain]
//            [--trace PATH] [--metrics PATH] [--json PATH]
//            [--log-level debug|info|warn|error|off]
//            [--report stats|full|bound|compare|mapping|codegen|csv]
//
// Exit status: 0 success, 1 runtime failure, 3 command-line misuse.
#include <chrono>
#include <cmath>
#include <iostream>
#include <string>
#include <thread>

#include "core/client_codegen.h"
#include "obs/lower_bound.h"
#include "obs/metrics.h"
#include "obs/run_record.h"
#include "obs/session.h"
#include "obs/trace.h"
#include "sim/experiment.h"
#include "sim/report.h"
#include "support/argparse.h"
#include "support/log.h"
#include "support/string_util.h"
#include "support/table.h"
#include "support/units.h"
#include "workloads/irregular.h"
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
  out
      << "usage: " << argv0 << " [options]\n"
      << "  --workload NAME     one of: " << join(workloads::workload_names(), ", ")
      << ", irregular (default hf)\n"
      << "  --scheme KIND       original | intra | inter | sched (default inter)\n"
      << "  --clients/--io/--storage N   topology (default 64/32/16)\n"
      << "  --chunk BYTES       data chunk size (default 65536)\n"
      << "  --policy NAME       lru|fifo|clock|lfu|2q|mq (default lru)\n"
      << "  --placement NAME    access|eviction|exclusive (default access)\n"
      << "  --balance F         BThres fraction (default 0.10)\n"
      << "  --alpha A --beta B  scheduler weights (default 0.5/0.5)\n"
      << "  --write-back        model dirty write-back traffic\n"
      << "  --cooperative       probe sibling client caches\n"
      << "  --readahead N       disk readahead depth (default 0)\n"
      << "  --size-factor F     workload data scale (default 1.0)\n"
      << "  --cache-mib M       per-node cache capacity at every level "
         "(default 32)\n"
      << "  --threads N         mapping-stage threads, at most " << kMaxThreads
      << "; 0 = all cores\n"
      << "                      (default 1, result is identical for any "
         "value)\n"
      << "  --cluster KIND      auto | greedy | forest: clustering kernel "
         "(default auto)\n"
      << "  --forest-threshold N  auto switches to the forest kernel at N "
         "input clusters (default 8192)\n"
      << "  --faults ARG        fault schedule: a JSON file or a spec "
         "string, e.g.\n"
      << "                      'fail@5ms:l2.0;transient@0:disk=0.01;"
         "seed=42'\n"
      << "  --remap             remap-on-failure: recompute the mapping "
         "over the\n"
      << "                      surviving topology when the schedule "
         "fail-stops a node\n"
      << CommonToolOptions::usage(/*with_reps=*/false, /*with_explain=*/true)
      << "  --report KIND       stats|full|bound|compare|mapping|codegen|csv "
         "(default stats)\n";
}

std::string gib(std::uint64_t bytes) {
  return format_double(static_cast<double>(bytes) /
                           static_cast<double>(kGiB), 2) +
         " GiB";
}

}  // namespace

int main(int argc, char** argv) {
  std::string workload_name = "hf";
  std::string scheme_name = "inter";
  std::string report = "stats";
  double size_factor = 1.0;
  sim::MachineConfig machine = sim::MachineConfig::paper_default();
  core::PipelineOptions scheme = core::PipelineOptions::inter();
  double alpha = 0.5;
  double beta = 0.5;
  CommonToolOptions common;
  common.accept_explain = true;
  std::string faults_arg;
  bool remap = false;
  sim::ResilienceSpec rspec;
  bool have_faults = false;

  try {
    ArgParser args(argc, argv);
    while (args.next()) {
      if (common.match(args)) {
        // --trace/--metrics/--json/--log-level handled by the shared
        // helper.
      } else if (args.value_flag("--workload")) {
        workload_name = args.value();
      } else if (args.value_flag("--scheme")) {
        scheme_name = args.value();
      } else if (args.value_flag("--clients")) {
        machine.clients = args.value_u64();
      } else if (args.value_flag("--io")) {
        machine.io_nodes = args.value_u64();
      } else if (args.value_flag("--storage")) {
        machine.storage_nodes = args.value_u64();
      } else if (args.value_flag("--chunk")) {
        machine.chunk_size_bytes = args.value_u64();
        machine.stripe_size_bytes = machine.chunk_size_bytes;
      } else if (args.value_flag("--policy")) {
        machine.policy = cache::parse_policy_kind(args.value());
      } else if (args.value_flag("--placement")) {
        const std::string mode = args.value();
        if (mode == "access") {
          machine.placement = cache::PlacementMode::kAccessBased;
        } else if (mode == "eviction") {
          machine.placement = cache::PlacementMode::kEvictionBased;
        } else if (mode == "exclusive") {
          machine.placement = cache::PlacementMode::kExclusive;
        } else {
          throw UsageError("--placement: unknown mode '" + mode + "'");
        }
      } else if (args.value_flag("--balance")) {
        scheme.balance_threshold = args.value_double();
        if (!std::isfinite(scheme.balance_threshold) ||
            scheme.balance_threshold < 0.0) {
          throw UsageError("--balance: expected a nonnegative fraction, got '" +
                           args.value() + "'");
        }
      } else if (args.value_flag("--alpha")) {
        alpha = args.value_double();
      } else if (args.value_flag("--beta")) {
        beta = args.value_double();
      } else if (args.flag("--write-back")) {
        machine.write_back = true;
      } else if (args.flag("--cooperative")) {
        machine.cooperative_caching = true;
      } else if (args.value_flag("--readahead")) {
        machine.readahead_chunks =
            static_cast<std::uint32_t>(args.value_u64_in(0, UINT32_MAX));
      } else if (args.value_flag("--size-factor")) {
        size_factor = args.value_double();
      } else if (args.value_flag("--cache-mib")) {
        const std::uint64_t bytes =
            args.value_u64_in(1, UINT64_MAX / kMiB) * kMiB;
        machine.client_cache_bytes = bytes;
        machine.io_cache_bytes = bytes;
        machine.storage_cache_bytes = bytes;
      } else if (args.value_flag("--threads")) {
        scheme.num_threads = args.value_threads();
      } else if (args.value_flag("--cluster")) {
        const std::string kind = args.value();
        if (kind == "auto") {
          scheme.clustering.algorithm = core::ClusterOptions::Algorithm::kAuto;
        } else if (kind == "greedy") {
          scheme.clustering.algorithm =
              core::ClusterOptions::Algorithm::kGreedy;
        } else if (kind == "forest") {
          scheme.clustering.algorithm =
              core::ClusterOptions::Algorithm::kForest;
        } else {
          throw UsageError("--cluster: unknown kernel '" + kind + "'");
        }
      } else if (args.value_flag("--forest-threshold")) {
        scheme.clustering.forest_threshold = args.value_u64();
      } else if (args.value_flag("--faults")) {
        faults_arg = args.value();
      } else if (args.flag("--remap")) {
        remap = true;
      } else if (args.value_flag("--report")) {
        report = args.value();
      } else {
        args.unknown();
      }
    }

    if (scheme_name == "original") {
      scheme.mapper = core::MapperKind::kOriginal;
    } else if (scheme_name == "intra") {
      scheme.mapper = core::MapperKind::kIntraProcessor;
    } else if (scheme_name == "inter") {
      scheme.mapper = core::MapperKind::kInterProcessor;
    } else if (scheme_name == "sched") {
      scheme.mapper = core::MapperKind::kInterProcessor;
      scheme.schedule = true;
      scheme.scheduler = {alpha, beta};
    } else {
      throw UsageError("--scheme: unknown scheme '" + scheme_name + "'");
    }

    if (report != "stats" && report != "full" && report != "bound" &&
        report != "compare" && report != "mapping" && report != "codegen" &&
        report != "csv") {
      throw UsageError("--report: unknown kind '" + report + "'");
    }

    if (!faults_arg.empty()) {
      rspec.schedule = resilience::load_fault_schedule(faults_arg);
      rspec.remap.remap_on_failure = remap;
      have_faults = true;
    } else if (remap) {
      throw UsageError("--remap requires --faults");
    }
    machine.explain = common.explain;
  } catch (const Error& e) {
    // Anything thrown while digesting the command line — unknown flags,
    // malformed values, unparseable fault schedules — is CLI misuse.
    std::cerr << "error: " << e.what() << "\n\n";
    print_usage(std::cerr, argv[0]);
    return kUsageExitCode;
  }

  // Start trace/metrics recording; flushed on every exit path.
  obs::ObsScope obs_scope(common.trace_path, common.metrics_path);

  obs::RunRecord record;
  record.binary = "mlsc_map";
  record.machine = machine.to_string();
  record.apps = {workload_name};
  record.build_type = MLSC_BUILD_TYPE;
  record.git_sha = MLSC_GIT_SHA;
  record.hardware_threads = std::thread::hardware_concurrency();
  auto write_record = [&] {
    if (common.json_path.empty()) return;
    record.include_metrics = obs::metrics_enabled();
    if (record.write_file(common.json_path)) {
      std::cerr << "[mlsc_map] wrote " << common.json_path << "\n";
    } else {
      std::cerr << "error: cannot write " << common.json_path << "\n";
    }
  };

  try {
    const auto workload =
        workload_name == "irregular"
            ? workloads::make_irregular(size_factor)
            : workloads::make_workload(workload_name, size_factor);

    if (report == "mapping" || report == "codegen") {
      const auto tree = machine.build_tree();
      const core::DataSpace space(workload.program,
                                  machine.chunk_size_bytes);
      core::MappingPipeline pipeline(tree, scheme);
      const auto mapping = [&] {
        obs::ScopedPhase phase(record, "mapping");
        return pipeline.run_all(workload.program, space);
      }();
      write_record();
      if (report == "codegen") {
        std::cout << core::emit_all_clients_source(workload.program,
                                                   mapping);
      } else {
        std::cout << "mapper: " << mapping.mapper_name << "\n"
                  << "clients: " << mapping.num_clients() << "\n"
                  << "iteration chunks: " << mapping.chunk_table.size()
                  << "\n"
                  << "sync edges: " << mapping.sync_edges.size() << "\n"
                  << "imbalance: " << format_double(mapping.imbalance(), 4)
                  << "\n";
        for (std::size_t c = 0; c < mapping.num_clients(); ++c) {
          std::cout << "  client " << c << ": "
                    << mapping.client_work[c].size() << " items, "
                    << mapping.client_iterations(c) << " iterations\n";
        }
      }
      return 0;
    }

    if (report == "bound") {
      const auto bound = [&] {
        obs::ScopedPhase phase(record, "bound");
        return obs::compute_io_lower_bound(workload.program,
                                           sim::machine_level_specs(machine));
      }();
      Table table({"level", "fast_memory", "compulsory_bytes",
                   "capacity_bytes", "io_lower_bound"});
      for (const auto& level : bound.levels) {
        table.add_row({level.level, gib(level.fast_memory_bytes),
                       std::to_string(level.compulsory_bytes),
                       std::to_string(level.capacity_bytes),
                       std::to_string(level.bound_bytes)});
      }
      std::cout << workload_name << " (footprint >= "
                << format_double(static_cast<double>(bound.footprint_bytes) /
                                     static_cast<double>(kMiB),
                                 2)
                << " MiB):\n";
      table.print(std::cout);
      std::cout << "\n";
      record.tables.emplace_back("bound", std::move(table));
      write_record();
      return 0;
    }

    if (report == "full") {
      const auto r = [&] {
        obs::ScopedPhase phase(record, "experiment");
        return sim::run_experiment(workload, scheme, machine,
                                   have_faults ? &rspec : nullptr);
      }();
      record.tables = sim::report_tables(r);
      record.insight = r.engine.insight;
      write_record();
      sim::write_report(std::cout, r, machine);
      return 0;
    }
    if (report == "compare") {
      const auto results = [&] {
        obs::ScopedPhase phase(record, "compare");
        return sim::run_all_schemes(workload, machine);
      }();
      record.tables.emplace_back("scheme comparison",
                                 sim::comparison_table(results));
      write_record();
      record.tables.back().second.print(std::cout);
      return 0;
    }
    const auto r = [&] {
      obs::ScopedPhase phase(record, "experiment");
      return sim::run_experiment(workload, scheme, machine,
                                 have_faults ? &rspec : nullptr);
    }();
    record.tables = sim::report_tables(r);
    record.insight = r.engine.insight;
    write_record();
    if (report == "csv") {
      Table table({"workload", "scheme", "l1_miss", "l2_miss", "l3_miss",
                   "disk_requests", "io_latency_ns", "exec_time_ns"});
      table.add_row({r.workload, r.scheme, format_double(r.l1_miss_rate, 4),
                     format_double(r.l2_miss_rate, 4),
                     format_double(r.l3_miss_rate, 4),
                     std::to_string(r.engine.disk_requests),
                     std::to_string(r.io_latency),
                     std::to_string(r.exec_time)});
      table.print_csv(std::cout);
    } else {
      std::cout << "machine: " << machine.to_string() << "\n";
      if (!r.fault_summary.empty()) {
        std::cout << "faults: " << r.fault_summary << "\n";
        if (r.remapped) {
          std::cout << "remap: " << r.remap_reason << " (pause "
                    << format_time(r.remap_pause) << ")\n";
        }
      }
      r.report(std::cout);
      std::cout << "disk requests: " << r.engine.disk_requests
                << ", write-backs: " << r.engine.disk_writebacks
                << ", peer hits: " << r.engine.peer_hits
                << ", prefetches: " << r.engine.prefetches
                << ", sync edges: " << r.sync_edges << "\n";
      if (r.engine.faults_applied > 0) {
        std::cout << "faults applied: " << r.engine.faults_applied
                  << ", transient errors: " << r.engine.transient_errors
                  << ", retries: " << r.engine.retries
                  << ", retry timeouts: " << r.engine.retry_timeouts
                  << ", failovers: " << r.engine.failovers << "\n";
      }
    }
  } catch (const Error& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 1;
  }
  return 0;
}
