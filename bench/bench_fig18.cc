// Figure 18 — the local scheduling enhancement (Fig. 15, α = β = 0.5):
// normalized L1 miss rates, I/O latencies and execution times of the
// inter-processor scheme with scheduling, versus without.
//
// Paper's headline: scheduling lifts the average L1 miss reduction to
// 27.8% and the I/O / execution improvements to 30.7% / 21.9%.
#include "bench/common.h"

int main(int argc, char** argv) {
  mlsc::bench::parse_common_flags(argc, argv);
  using namespace mlsc;
  const auto machine = sim::MachineConfig::paper_default();
  bench::print_header(
      "Figure 18: inter-processor + local scheduling (alpha = beta = 0.5, "
      "original = 1.0)",
      machine);

  Table table({"app", "L1 (inter)", "L1 (+sched)", "I/O (inter)",
               "I/O (+sched)", "exec (inter)", "exec (+sched)"});
  std::vector<double> sums(6, 0.0);
  const auto apps = bench::bench_apps();
  for (const auto& name : apps) {
    const auto workload = workloads::make_workload(name);
    const auto orig =
        bench::run(workload, core::PipelineOptions::original(), machine);
    const auto inter =
        bench::run(workload, core::PipelineOptions::inter(), machine);
    const auto sched =
        bench::run(workload, core::PipelineOptions::inter_scheduled(), machine);
    const double values[6] = {
        inter.l1_miss_rate / orig.l1_miss_rate,
        sched.l1_miss_rate / orig.l1_miss_rate,
        static_cast<double>(inter.io_latency) /
            static_cast<double>(orig.io_latency),
        static_cast<double>(sched.io_latency) /
            static_cast<double>(orig.io_latency),
        static_cast<double>(inter.exec_time) /
            static_cast<double>(orig.exec_time),
        static_cast<double>(sched.exec_time) /
            static_cast<double>(orig.exec_time),
    };
    std::vector<double> row(values, values + 6);
    for (int i = 0; i < 6; ++i) sums[i] += values[i];
    table.add_row_numeric(name, row, 3);
  }
  std::vector<double> avg;
  for (double s : sums) avg.push_back(s / static_cast<double>(apps.size()));
  table.add_row_numeric("average", avg, 3);
  bench::print_table(table);

  std::cout << "with scheduling: L1 miss reduction "
            << format_double((1 - avg[1]) * 100, 1)
            << "% (paper: 27.8%), I/O improvement "
            << format_double((1 - avg[3]) * 100, 1)
            << "% (paper: 30.7%), execution improvement "
            << format_double((1 - avg[5]) * 100, 1) << "% (paper: 21.9%)\n";
  return 0;
}
