// §5.4 ablation — the α/β weights of the scheduling algorithm (Fig. 15).
//
// Paper: "giving them equal values generates the best results ... if β
// is too big, the potential locality in the shared caches is missed, and
// if α is too big, L1 locality starts to suffer."
#include "bench/common.h"

int main(int argc, char** argv) {
  mlsc::bench::parse_common_flags(argc, argv);
  using namespace mlsc;
  const auto machine = sim::MachineConfig::paper_default();
  bench::print_header(
      "Ablation: scheduler weights alpha (I/O-level) vs beta "
      "(client-level); normalized to original",
      machine);

  const std::vector<std::pair<double, double>> weights = {
      {1.0, 0.0}, {0.75, 0.25}, {0.5, 0.5}, {0.25, 0.75}, {0.0, 1.0}};
  const auto apps = mlsc::bench::bench_apps(
      {"hf", "contour", "astro", "madbench2"});

  Table table({"alpha", "beta", "L1 miss", "L2 miss", "I/O latency",
               "exec time"});
  for (const auto& [alpha, beta] : weights) {
    double l1 = 0.0;
    double l2 = 0.0;
    double io = 0.0;
    double exec = 0.0;
    for (const auto& name : apps) {
      const auto workload = workloads::make_workload(name);
      const auto orig =
          bench::run(workload, core::PipelineOptions::original(), machine);
      const auto sched = bench::run(
          workload, core::PipelineOptions::inter_scheduled(alpha, beta),
          machine);
      l1 += sched.l1_miss_rate / orig.l1_miss_rate;
      l2 += sched.l2_miss_rate / orig.l2_miss_rate;
      io += static_cast<double>(sched.io_latency) /
            static_cast<double>(orig.io_latency);
      exec += static_cast<double>(sched.exec_time) /
              static_cast<double>(orig.exec_time);
    }
    const auto n = static_cast<double>(apps.size());
    table.add_row({format_double(alpha, 2), format_double(beta, 2),
                   format_double(l1 / n, 3), format_double(l2 / n, 3),
                   format_double(io / n, 3), format_double(exec / n, 3)});
  }
  bench::print_table(table);
  std::cout << "paper: equal weights (0.5/0.5) were best\n";
  return 0;
}
