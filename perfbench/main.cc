// perfbench: the repository's benchmark.  One binary runs one workload
// (paper, bigmap or churn) through the public API, checks its outputs,
// and prints every metric by name and unit; the last stdout line is the
// JSON result.  See perfbench/README.md for the workloads and metrics.
//
//   perfbench --workload paper|bigmap|churn --seed N --seconds S
//             --trace 0|1 [--out-dir DIR] [--threads N]
//
// --threads sets bigmap's mapping threads (default: all hardware
// threads); paper and churn map with one.
//
// --trace 0 reports the end-to-end metrics; --trace 1 runs one untraced
// and one span-traced pass and reports the per-layer metrics.
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <iostream>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "bench.h"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace {

using perfbench::Values;

struct MetricDef {
  const char* name;
  const char* unit;
  const char* better;
};

// Keep in step with BENCHMARK.json.
const MetricDef kEndToEnd[] = {
    {"setup_s", "s", "lower"},
    {"wall_s", "s", "lower"},
    {"map_s", "s", "lower"},
    {"map_p50_ms", "ms", "lower"},
    {"map_tail_ms", "ms", "lower"},
    {"peak_rss_mib", "MiB", "lower"},
    {"sim_exec_s", "sim_s", "lower"},
    {"mean_imbalance", "ratio", "lower"},
};

const MetricDef kPerLayer[] = {
    {"tagging.ms", "ms", "lower"},
    {"tagging.share_pct", "%", "lower"},
    {"tagging.iterations", "count", "lower"},
    {"tagging.chunks", "count", "lower"},
    {"tagging.iter_per_us", "1/us", "higher"},
    {"dependences.share_pct", "%", "lower"},
    {"dependences.edges", "count", "lower"},
    {"sync.edges", "count", "lower"},
    {"mapper.ms", "ms", "lower"},
    {"mapper.share_pct", "%", "lower"},
    {"mapper.chunks_in", "count", "lower"},
    {"mapper.chunks_out", "count", "lower"},
    {"mapper.chunks_per_ms", "1/ms", "higher"},
    {"mapper.clustering_pct", "%", "lower"},
    {"mapper.balance_pct", "%", "lower"},
    {"mapper.unattributed_pct", "%", "lower"},
    {"pipeline.share_pct", "%", "lower"},
    {"trace.ms", "ms", "lower"},
    {"trace.share_pct", "%", "lower"},
    {"trace.accesses", "count", "lower"},
    {"trace.maccess_per_s", "Maccess/s", "higher"},
    {"engine.ms", "ms", "lower"},
    {"engine.share_pct", "%", "lower"},
    {"engine.accesses", "count", "lower"},
    {"engine.ns_per_access", "ns", "lower"},
    {"l1.miss_pct", "%", "lower"},
    {"l2.miss_pct", "%", "lower"},
    {"l3.miss_pct", "%", "lower"},
    {"engine.disk_requests", "count", "lower"},
    {"engine.peer_hits", "count", "higher"},
    {"engine.prefetches", "count", "lower"},
    {"engine.writebacks", "count", "lower"},
    {"engine.sync_wait_share", "ratio", "lower"},
    {"engine.disk_queue_share", "ratio", "lower"},
    {"bound.ms", "ms", "lower"},
    {"bound.share_pct", "%", "lower"},
    {"headroom.l2_pct", "%", "higher"},
    {"headroom.l3_pct", "%", "higher"},
    {"serve.share_pct", "%", "lower"},
    {"serve.register_pct", "%", "lower"},
    {"serve.depart_pct", "%", "lower"},
    {"serve.scale_pct", "%", "lower"},
    {"serve.fault_pct", "%", "lower"},
    {"serve.events_per_s", "1/s", "higher"},
    {"serve.modelled_pause_ms", "sim_ms", "lower"},
    {"serve.patch_n", "count", "lower"},
    {"serve.partial_n", "count", "lower"},
    {"serve.full_n", "count", "lower"},
    {"serve.scored_pairs", "count", "lower"},
    {"serve.forest_hooks", "count", "lower"},
    {"serve.standing_chunks", "count", "lower"},
    {"fidelity.inter_vs_original_exec", "ratio", "lower"},
    {"fidelity.inter_vs_original_io", "ratio", "lower"},
    {"fig11.exec_gap_pts", "pts", "lower"},
    {"fig11.io_gap_pts", "pts", "lower"},
    {"pass.unattributed_pct", "%", "lower"},
    {"trace_overhead_pct", "%", "lower"},
};

[[noreturn]] void usage(const std::string& error) {
  std::cerr << "perfbench: " << error << "\n"
            << "usage: perfbench --workload paper|bigmap|churn --seed N "
               "--seconds S --trace 0|1 [--out-dir DIR] [--threads N]\n";
  std::exit(2);
}

std::uint64_t parse_uint(const std::string& flag, const std::string& text) {
  std::size_t used = 0;
  unsigned long long value = 0;
  try {
    value = std::stoull(text, &used);
  } catch (const std::exception&) {
    used = 0;
  }
  if (text.empty() || used != text.size() || text[0] == '-') {
    usage(flag + " needs a non-negative integer, got '" + text + "'");
  }
  return value;
}

perfbench::RunOptions parse_args(int argc, char** argv) {
  perfbench::RunOptions options;
  options.threads = std::max(1u, std::thread::hardware_concurrency());
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) usage(flag + " needs a value");
    const std::string value = argv[++i];
    if (flag == "--workload") {
      options.workload = value;
      have_workload = true;
    } else if (flag == "--seed") {
      options.seed = parse_uint(flag, value);
    } else if (flag == "--seconds") {
      options.seconds = static_cast<double>(parse_uint(flag, value));
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") usage("--trace takes 0 or 1");
      options.trace = value == "1";
    } else if (flag == "--out-dir") {
      options.out_dir = value;
    } else if (flag == "--threads") {
      options.threads = std::max<std::uint64_t>(1, parse_uint(flag, value));
    } else {
      usage("unknown flag " + flag);
    }
  }
  if (!have_workload) usage("--workload is required");
  if (options.workload != "paper" && options.workload != "bigmap" &&
      options.workload != "churn") {
    usage("unknown workload '" + options.workload + "'");
  }
  return options;
}

/// All significant digits; the result line carries values as measured.
std::string number(double value) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", value);
  return buf;
}

}  // namespace

int main(int argc, char** argv) {
  const perfbench::RunOptions options = parse_args(argc, argv);
  Values values;
  perfbench::Checks checks;
  try {
    std::filesystem::create_directories(options.out_dir);
    if (options.workload == "paper") {
      perfbench::run_paper(options, values, checks);
    } else if (options.workload == "bigmap") {
      perfbench::run_bigmap(options, values, checks);
    } else {
      perfbench::run_churn(options, values, checks);
    }
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << options.workload << " failed: " << e.what()
              << "\n";
    return 1;
  }
  values["peak_rss_mib"] = perfbench::peak_rss_mib();

  std::cout << "perfbench workload=" << options.workload
            << " seed=" << options.seed << " seconds=" << options.seconds
            << " trace=" << (options.trace ? 1 : 0)
            << " passes=" << number(values["passes"])
            << " hardware_threads=" << std::thread::hardware_concurrency()
            << " mapping_threads=" << number(values["mapping_threads"])
            << " build_type=" << PERFBENCH_BUILD_TYPE << "\n";
  if (values.count("map_tail_pct")) {
    std::cout << "map_tail_ms is the p" << number(values["map_tail_pct"])
              << " request latency (p100 = slowest request)\n";
  }
  if (values.count("sim_maccess_per_s")) {
    std::cout << "simulator throughput " << number(values["sim_maccess_per_s"])
              << " Maccess/s (generate_trace + run_engine)\n";
  }
  if (values.count("fidelity.inter_vs_original_exec")) {
    std::cout << "inter/original exec "
              << number(values["fidelity.inter_vs_original_exec"])
              << " (paper 0.811), I/O "
              << number(values["fidelity.inter_vs_original_io"])
              << " (paper 0.737)\n";
  }

  const std::span<const MetricDef> table =
      options.trace ? std::span<const MetricDef>(kPerLayer)
                    : std::span<const MetricDef>(kEndToEnd);
  std::string json = "{";
  bool first = true;
  bool finite = true;
  for (const MetricDef& m : table) {
    const auto it = values.find(m.name);
    if (it == values.end() && !options.trace) {
      std::cerr << "perfbench: metric " << m.name << " was not measured\n";
      return 1;
    }
    // Per-layer metrics of a layer the workload does not run read 0.
    const double value = it == values.end() ? 0.0 : it->second;
    finite = finite && std::isfinite(value);
    std::printf("  %-34s %22s %-10s %s is better\n", m.name,
                number(value).c_str(), m.unit, m.better);
    json += std::string(first ? "" : ", ") + "\"" + m.name +
            "\": {\"value\": " + number(value) + ", \"unit\": \"" + m.unit +
            "\"}";
    first = false;
  }
  json += "}";
  if (!finite) {
    std::cerr << "perfbench: a metric is not finite\n";
    return 1;
  }
  for (const std::string& failure : checks.failures) {
    std::cout << "check failed: " << failure << "\n";
  }
  const double failed_pct =
      checks.attempted == 0 ? 100.0
                            : 100.0 * static_cast<double>(checks.failed) /
                                  static_cast<double>(checks.attempted);
  std::cout << "failed_pct " << number(failed_pct) << " % of "
            << checks.attempted << " checked operations\n";
  const bool correct = checks.failures.empty() && checks.attempted > 0;
  std::cout << "{\"correct\": " << (correct ? "true" : "false")
            << ", \"attempted\": " << checks.attempted
            << ", \"failed\": " << checks.failed << ", \"metrics\": " << json
            << "}" << std::endl;
  return 0;
}
