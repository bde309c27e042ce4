// §4.3 ablation — the balance threshold BThres: tolerated imbalance vs
// cache-affinity freedom.  The paper fixes BThres = 10% for all its
// experiments; this sweep shows the trade-off around that choice.
#include "bench/common.h"

int main(int argc, char** argv) {
  mlsc::bench::parse_common_flags(argc, argv);
  using namespace mlsc;
  const auto machine = sim::MachineConfig::paper_default();
  bench::print_header(
      "Ablation: balance threshold BThres (inter-processor, normalized to "
      "original)",
      machine);

  const std::vector<double> thresholds = {0.0, 0.05, 0.10, 0.20, 0.40};
  const auto apps = mlsc::bench::bench_apps(
      {"hf", "astro", "madbench2", "wupwise"});

  Table table({"BThres", "imbalance", "I/O latency", "exec time"});
  for (double t : thresholds) {
    double io = 0.0;
    double exec = 0.0;
    double imbalance = 0.0;
    for (const auto& name : apps) {
      const auto workload = workloads::make_workload(name);
      const auto orig =
          bench::run(workload, core::PipelineOptions::original(), machine);
      core::PipelineOptions spec = core::PipelineOptions::inter();
      spec.balance_threshold = t;
      const auto inter = bench::run(workload, spec, machine);
      io += static_cast<double>(inter.io_latency) /
            static_cast<double>(orig.io_latency);
      exec += static_cast<double>(inter.exec_time) /
              static_cast<double>(orig.exec_time);
      // Measure the realized imbalance through the engine's totals.
      imbalance += static_cast<double>(inter.engine.io_time_max) /
                   (static_cast<double>(inter.engine.io_time_total) /
                    static_cast<double>(machine.clients));
    }
    const auto n = static_cast<double>(apps.size());
    table.add_row({format_double(t * 100, 0) + "%",
                   format_double(imbalance / n, 3),
                   format_double(io / n, 3), format_double(exec / n, 3)});
  }
  bench::print_table(table);
  std::cout << "paper default: BThres = 10%\n";
  return 0;
}
