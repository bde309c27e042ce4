// Degraded-mode benchmark: sweeps fault intensity (transient disk-error
// rate layered on top of an L2 fail-stop) and compares three replays of
// each workload:
//
//   healthy    no faults injected
//   no-remap   degraded replay of the healthy mapping (failover +
//              retries only)
//   remap      remap-on-failure: the mapping is recomputed over the
//              surviving topology and the run is charged the remap pause
//
// The headline column is recovery%: how much of the throughput the
// fail-stop costs the no-remap run is won back by remapping,
//   100 * (tp_remap - tp_noremap) / (tp_healthy - tp_noremap),
// reported per (app, intensity) row in the table and hence in the run
// record — measured, never hard-coded.
//
// Output: the standard table on stdout plus a machine-readable JSON run
// record, BENCH_degraded.json by default (override with --json=<path>).
// --size-factor=F scales the data volume for quick smoke runs.
#include <chrono>
#include <cstring>
#include <iostream>
#include <string>
#include <vector>

#include "bench/common.h"
#include "resilience/fault.h"
#include "support/check.h"
#include "support/string_util.h"
#include "workloads/registry.h"

namespace {

using namespace mlsc;

constexpr std::uint64_t kSeed = 2010;

// The fail-stop hits early so most of the run executes degraded; the
// transient error rate is the swept intensity axis.
std::string fault_spec(double disk_error_rate) {
  std::string spec = "fail@2ms:l2.0";
  if (disk_error_rate > 0.0) {
    spec += ";transient@0:disk=" + format_double(disk_error_rate, 4);
  }
  spec += ";seed=" + std::to_string(kSeed);
  return spec;
}

double throughput(const workloads::Workload& workload,
                  const sim::ExperimentResult& result) {
  if (result.exec_time <= 0) return 0.0;
  return static_cast<double>(workload.program.total_iterations()) /
         (static_cast<double>(result.exec_time) * 1e-9);
}

sim::ExperimentResult run_variant(const workloads::Workload& workload,
                                  const core::PipelineOptions& scheme,
                                  const sim::MachineConfig& config,
                                  const sim::ResilienceSpec* resilience,
                                  const std::string& variant) {
  std::cerr << "[bench] " << workload.name << " / " << variant << "\n";
  const auto start = std::chrono::steady_clock::now();
  auto result = sim::run_experiment(workload, scheme, config, resilience);
  bench::record_phase(workload.name + "/" + variant,
                      std::chrono::duration<double, std::milli>(
                          std::chrono::steady_clock::now() - start)
                          .count());
  return result;
}

}  // namespace

int main(int argc, char** argv) {
  // BENCH_degraded.json is the default output; an explicit --json= wins.
  std::vector<char*> args(argv, argv + argc);
  static char default_json[] = "--json=BENCH_degraded.json";
  bool has_json = false;
  double size_factor = 1.0;
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--json=", 7) == 0) has_json = true;
    if (std::strncmp(argv[i], "--size-factor=", 14) == 0) {
      size_factor = std::atof(argv[i] + 14);
      MLSC_CHECK(size_factor > 0.0, "--size-factor must be positive");
    }
  }
  if (!has_json) args.push_back(default_json);
  bench::parse_common_flags(static_cast<int>(args.size()), args.data());
  bench::set_record_seed(kSeed);

  sim::MachineConfig config;
  config.workload_size_factor = size_factor;
  const core::PipelineOptions scheme = core::PipelineOptions::inter();

  // Failover detection at multipath-probe scale: the failed node is
  // silent, so every access that reaches it waits out a 50 ms path probe
  // before falling through.  Clients cache no failure state — exactly
  // the pathology that makes remapping worthwhile; the no-remap run
  // keeps dispatching into the timeout for the rest of the run.  (The
  // library default of 100 us models an in-band error return instead.)
  resilience::RetryPolicy retry;
  retry.failover_detect_ns = 50 * kMillisecond;
  const std::vector<double> error_rates = {0.0, 0.01, 0.05};

  bench::print_header("degraded-mode replay: fault-intensity sweep", config);
  std::cout << "faults: L2[0] fail-stop at 2 ms + transient disk errors at "
               "the swept rate (seed "
            << kSeed << ")\n"
            << "tp = loop iterations per second; recovery% = share of the "
               "no-remap throughput loss won back by remap-on-failure\n\n";

  Table table({"app", "disk_err", "tp_healthy", "tp_noremap", "tp_remap",
               "exec_noremap_s", "exec_remap_s", "recovery_pct"});

  for (const auto& app : bench::bench_apps({"sar", "astro"})) {
    const workloads::Workload workload =
        workloads::make_workload(app, size_factor);

    const auto healthy =
        run_variant(workload, scheme, config, nullptr, "healthy");
    const double tp_healthy = throughput(workload, healthy);

    for (const double rate : error_rates) {
      const std::string spec = fault_spec(rate);

      sim::ResilienceSpec no_remap;
      no_remap.schedule = resilience::parse_fault_spec(spec);
      no_remap.retry = retry;
      no_remap.remap.remap_on_failure = false;
      const auto degraded = run_variant(
          workload, scheme, config, &no_remap,
          "no-remap@disk=" + format_double(rate, 2));
      const double tp_noremap = throughput(workload, degraded);

      sim::ResilienceSpec with_remap;
      with_remap.schedule = resilience::parse_fault_spec(spec);
      with_remap.retry = retry;
      with_remap.remap.remap_on_failure = true;
      const auto remapped = run_variant(
          workload, scheme, config, &with_remap,
          "remap@disk=" + format_double(rate, 2));
      MLSC_CHECK(remapped.remapped, "remap-on-failure run did not remap");
      const double tp_remap = throughput(workload, remapped);

      // Recovery is only meaningful when the faults actually cost the
      // no-remap run throughput.
      const double lost = tp_healthy - tp_noremap;
      const std::string recovery =
          lost > 0.0
              ? format_double(100.0 * (tp_remap - tp_noremap) / lost, 1)
              : "n/a";

      table.add_row({app, format_double(rate, 2),
                     format_double(tp_healthy, 0),
                     format_double(tp_noremap, 0), format_double(tp_remap, 0),
                     format_double(degraded.exec_time * 1e-9, 3),
                     format_double(remapped.exec_time * 1e-9, 3), recovery});
    }
  }

  bench::print_table(table, "degraded");
  return 0;
}
