// Figure 13 — sensitivity to storage cache capacities: normalized I/O
// and execution latencies of the inter-processor scheme with different
// per-node (client, I/O, storage) cache sizes.
//
// Paper's trend: increasing any capacity shrinks the savings (the
// original version benefits more from extra space); halving capacities
// (the (1GB,1GB,1GB) point) boosts the approach.
#include "bench/common.h"

int main(int argc, char** argv) {
  mlsc::bench::parse_common_flags(argc, argv);
  using namespace mlsc;
  // Per-node capacities, at the paper's scale (we divide by 64).
  struct Config {
    const char* label;
    std::uint64_t client_gb, io_gb, storage_gb;
  };
  const std::vector<Config> configs = {
      {"(1GB,1GB,1GB)", 1, 1, 1}, {"(2GB,2GB,2GB)", 2, 2, 2},
      {"(4GB,2GB,2GB)", 4, 2, 2}, {"(2GB,4GB,4GB)", 2, 4, 4},
      {"(4GB,4GB,4GB)", 4, 4, 4},
  };
  const auto apps = mlsc::bench::bench_apps(
      {"hf", "sar", "astro", "madbench2", "wupwise"});

  bench::print_header(
      "Figure 13: normalized I/O and execution latency vs cache capacity "
      "(inter-processor, original = 1.0; labels are paper-scale per-node "
      "capacities, simulated at 1/64)",
      sim::MachineConfig::paper_default());

  Table table({"capacities (W,X,Y)", "I/O latency", "exec time"});
  for (const auto& config : configs) {
    sim::MachineConfig machine = sim::MachineConfig::paper_default();
    machine.client_cache_bytes = config.client_gb * kGiB / 64;
    machine.io_cache_bytes = config.io_gb * kGiB / 64;
    machine.storage_cache_bytes = config.storage_gb * kGiB / 64;
    double io_sum = 0.0;
    double exec_sum = 0.0;
    for (const auto& name : apps) {
      const auto workload = workloads::make_workload(name);
      const auto orig =
          bench::run(workload, core::PipelineOptions::original(), machine);
      const auto inter =
          bench::run(workload, core::PipelineOptions::inter(), machine);
      io_sum += static_cast<double>(inter.io_latency) /
                static_cast<double>(orig.io_latency);
      exec_sum += static_cast<double>(inter.exec_time) /
                  static_cast<double>(orig.exec_time);
    }
    const auto n = static_cast<double>(apps.size());
    table.add_row_numeric(config.label, {io_sum / n, exec_sum / n}, 3);
  }
  bench::print_table(table);
  std::cout << "paper trend: larger caches shrink the savings; the "
               "(1GB,1GB,1GB) point boosts them\n";
  return 0;
}
