// Figure 14 — sensitivity to the data chunk size: normalized I/O and
// execution latencies of the inter-processor scheme for 16KB..128KB
// chunks.
//
// Paper's trend: smaller chunks mean finer iteration chunks and finer
// clustering, improving the savings (at higher compile time).
#include <chrono>

#include "bench/common.h"

int main(int argc, char** argv) {
  mlsc::bench::parse_common_flags(argc, argv);
  using namespace mlsc;
  const std::vector<std::uint64_t> chunk_sizes = {
      16 * kKiB, 32 * kKiB, 64 * kKiB, 128 * kKiB};
  const auto apps = mlsc::bench::bench_apps(
      {"hf", "sar", "astro", "madbench2", "wupwise"});

  bench::print_header(
      "Figure 14: normalized I/O and execution latency vs data chunk size "
      "(inter-processor, original = 1.0)",
      sim::MachineConfig::paper_default());

  Table table({"chunk size", "I/O latency", "exec time",
               "mapping time (s)"});
  for (std::uint64_t chunk : chunk_sizes) {
    sim::MachineConfig machine = sim::MachineConfig::paper_default();
    machine.chunk_size_bytes = chunk;
    machine.stripe_size_bytes = chunk;  // stripe == chunk, as in Table 1
    double io_sum = 0.0;
    double exec_sum = 0.0;
    double mapping_seconds = 0.0;
    for (const auto& name : apps) {
      const auto workload = workloads::make_workload(name);
      const auto orig =
          bench::run(workload, core::PipelineOptions::original(), machine);
      const auto start = std::chrono::steady_clock::now();
      const auto inter =
          bench::run(workload, core::PipelineOptions::inter(), machine);
      mapping_seconds +=
          std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                        start)
              .count();
      io_sum += static_cast<double>(inter.io_latency) /
                static_cast<double>(orig.io_latency);
      exec_sum += static_cast<double>(inter.exec_time) /
                  static_cast<double>(orig.exec_time);
    }
    const auto n = static_cast<double>(apps.size());
    table.add_row({format_bytes(chunk), format_double(io_sum / n, 3),
                   format_double(exec_sum / n, 3),
                   format_double(mapping_seconds, 1)});
  }
  bench::print_table(table);
  std::cout << "paper trend: smaller chunks improve the savings but "
               "increase compilation (mapping) time — moving 64KB -> 16KB "
               "raised their compile time by >75%\n";
  return 0;
}
