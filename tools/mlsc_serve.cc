// mlsc_serve — online mapping service for workload churn.
//
// Consumes an mlsc-serve-event-v1 event stream (register / depart /
// scale / fault), keeps a live mapping (tags, posting index, standing
// affinity forest, cut, placement), and settles every event with the
// cheapest remap scope the cost/benefit policy accepts: patch the new
// work in, partially remap (recut the standing forest), or fully
// recompute.  Every decision is journaled as a JSON line; a journal
// replays as an event stream, so `--replay journal.jsonl` reproduces a
// bit-identical end state at any thread count.
//
// Usage:
//   mlsc_serve --events FILE | --replay FILE
//              [--clients N] [--io N] [--storage N] [--chunk BYTES]
//              [--threads N] [--seed S]
//              [--policy auto|patch|partial|full]
//              [--drift-sample K] [--max-chunks N]
//              [--journal PATH] [--snapshot PATH] [--snapshot-every N]
//              [--prom PATH] [--check] [--print-state]
//              [--trace PATH] [--metrics PATH] [--json PATH]
//              [--log-level L]
//
// Exit status: 0 success, 1 runtime failure, 3 command-line misuse
// (including malformed event files).
#include <cstdint>
#include <iostream>
#include <string>

#include "obs/metrics.h"
#include "obs/session.h"
#include "serve/event.h"
#include "serve/service.h"
#include "support/argparse.h"
#include "support/log.h"
#include "support/thread_pool.h"

namespace {

using namespace mlsc;

void print_usage(std::ostream& out, const char* argv0) {
  out << "usage: " << argv0 << " --events FILE [options]\n"
      << "  --events FILE       event stream (JSON lines, "
      << serve::kServeEventSchema << ")\n"
      << "  --replay FILE       alias of --events (journals replay as "
         "streams)\n"
      << "  --clients/--io/--storage N   topology (default 64/32/16)\n"
      << "  --chunk BYTES       data chunk size (default 65536)\n"
      << "  --threads N         mapping threads, at most " << kMaxThreads
      << "; 0 = all cores\n"
      << "                      (default 1, end state is identical for any\n"
      << "                      value)\n"
      << "  --seed S            journal seed stamp (default 0)\n"
      << "  --policy KIND       auto | patch | partial | full (default "
         "auto)\n"
      << "  --drift-sample K    drift probes replay K sampled clients "
         "(default 0 = off)\n"
      << "  --max-chunks N      iteration-chunk cap per instance (default "
         "4096)\n"
      << "  --journal PATH      write the decision journal (JSON lines)\n"
      << "  --snapshot PATH     write a run-record snapshot (see "
         "--snapshot-every)\n"
      << "  --snapshot-every N  refresh the snapshot every N events "
         "(default: end only)\n"
      << "  --prom PATH         Prometheus textfile, atomically refreshed "
         "per event\n"
      << "  --check             verify state invariants after every event\n"
      << "  --print-state       print the end-state fingerprint to stdout\n"
      << CommonToolOptions::usage();
}

}  // namespace

int main(int argc, char** argv) {
  std::string events_path;
  bool print_state = false;
  CommonToolOptions common;
  serve::ServiceOptions options;
  options.machine = sim::MachineConfig::paper_default();
  std::vector<serve::ServeEvent> events;

  try {
    ArgParser args(argc, argv);
    while (args.next()) {
      if (common.match(args)) {
        // Shared flags handled.
      } else if (args.value_flag("--events") || args.value_flag("--replay")) {
        events_path = args.value();
      } else if (args.value_flag("--clients")) {
        options.machine.clients = args.value_u64();
      } else if (args.value_flag("--io")) {
        options.machine.io_nodes = args.value_u64();
      } else if (args.value_flag("--storage")) {
        options.machine.storage_nodes = args.value_u64();
      } else if (args.value_flag("--chunk")) {
        options.machine.chunk_size_bytes = args.value_u64();
        options.machine.stripe_size_bytes = options.machine.chunk_size_bytes;
      } else if (args.value_flag("--threads")) {
        options.num_threads = args.value_threads();
      } else if (args.value_flag("--seed")) {
        options.seed = args.value_u64();
      } else if (args.value_flag("--policy")) {
        const std::string kind = args.value();
        if (kind == "auto") {
          options.policy.force = serve::ServePolicy::Force::kAuto;
        } else if (kind == "patch") {
          options.policy.force = serve::ServePolicy::Force::kPatch;
        } else if (kind == "partial") {
          options.policy.force = serve::ServePolicy::Force::kPartial;
        } else if (kind == "full") {
          options.policy.force = serve::ServePolicy::Force::kFull;
        } else {
          throw UsageError("--policy: unknown policy '" + kind + "'");
        }
      } else if (args.value_flag("--drift-sample")) {
        options.drift_sample = args.value_u64();
      } else if (args.value_flag("--max-chunks")) {
        options.state.tagging.max_iteration_chunks =
            static_cast<std::uint32_t>(args.value_u64_in(1, UINT32_MAX));
      } else if (args.value_flag("--journal")) {
        options.journal_path = args.value();
      } else if (args.value_flag("--snapshot")) {
        options.snapshot_path = args.value();
      } else if (args.value_flag("--snapshot-every")) {
        options.snapshot_every = args.value_u64();
      } else if (args.value_flag("--prom")) {
        options.prom_path = args.value();
      } else if (args.flag("--check")) {
        options.check_invariants = true;
      } else if (args.flag("--print-state")) {
        print_state = true;
      } else {
        args.unknown();
      }
    }
    if (events_path.empty()) {
      throw UsageError("--events (or --replay) is required");
    }
    // A malformed event file is CLI misuse: the tool never started.
    events = serve::load_event_stream(events_path);
  } catch (const Error& e) {
    std::cerr << "error: " << e.what() << "\n\n";
    print_usage(std::cerr, argv[0]);
    return kUsageExitCode;
  }

  // Live metrics back the Prometheus endpoint even without --metrics.
  obs::ObsScope obs_scope(common.trace_path, common.metrics_path,
                          /*force_metrics=*/!options.prom_path.empty());

  try {
    serve::MappingService service(options);
    service.run(events);
    if (!common.json_path.empty()) {
      obs::RunRecord record = service.snapshot();
      if (record.write_file(common.json_path)) {
        std::cerr << "[mlsc_serve] wrote " << common.json_path << "\n";
      } else {
        std::cerr << "error: cannot write " << common.json_path << "\n";
        return 1;
      }
    }
    const auto& decisions = service.decisions();
    std::size_t patches = 0;
    std::size_t partials = 0;
    std::size_t fulls = 0;
    for (const auto& d : decisions) {
      patches += d.scope == serve::RemapScope::kPatch ? 1 : 0;
      partials += d.scope == serve::RemapScope::kPartial ? 1 : 0;
      fulls += d.scope == serve::RemapScope::kFull ? 1 : 0;
    }
    std::cerr << "[mlsc_serve] " << decisions.size() << " events: "
              << patches << " patch, " << partials << " partial, " << fulls
              << " full; live=" << service.state().num_live_workloads()
              << " chunks=" << service.state().standing_chunks()
              << " imbalance=" << service.state().imbalance()
              << " pause=" << format_time(service.total_pause()) << "\n";
    if (print_state) std::cout << service.state().fingerprint();
  } catch (const Error& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 1;
  }
  return 0;
}
