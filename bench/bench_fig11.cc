// Figure 11 — normalized I/O latency and total execution time for the
// intra-processor and inter-processor schemes (original = 1.0).
//
// Paper's headline: average I/O latency improvements of 6.8% (intra) and
// 26.3% (inter); execution time improvements of 3.5% and 18.9%.
#include "bench/common.h"

int main(int argc, char** argv) {
  mlsc::bench::parse_common_flags(argc, argv);
  using namespace mlsc;
  const auto machine = sim::MachineConfig::paper_default();
  bench::print_header(
      "Figure 11: normalized I/O latency and total execution time "
      "(original = 1.0)",
      machine);

  Table table({"app", "intra I/O", "inter I/O", "intra exec", "inter exec"});
  std::vector<double> sums(4, 0.0);
  const auto apps = bench::bench_apps();
  for (const auto& name : apps) {
    const auto workload = workloads::make_workload(name);
    const auto orig =
        bench::run(workload, core::PipelineOptions::original(), machine);
    const auto intra =
        bench::run(workload, core::PipelineOptions::intra(), machine);
    const auto inter =
        bench::run(workload, core::PipelineOptions::inter(), machine);
    const double values[4] = {
        static_cast<double>(intra.io_latency) /
            static_cast<double>(orig.io_latency),
        static_cast<double>(inter.io_latency) /
            static_cast<double>(orig.io_latency),
        static_cast<double>(intra.exec_time) /
            static_cast<double>(orig.exec_time),
        static_cast<double>(inter.exec_time) /
            static_cast<double>(orig.exec_time),
    };
    std::vector<double> row(values, values + 4);
    for (int i = 0; i < 4; ++i) sums[i] += values[i];
    table.add_row_numeric(name, row, 3);
  }
  std::vector<double> avg;
  for (double s : sums) avg.push_back(s / static_cast<double>(apps.size()));
  table.add_row_numeric("average", avg, 3);
  bench::print_table(table);

  std::cout << "average improvements: I/O latency intra "
            << format_double((1 - avg[0]) * 100, 1) << "% / inter "
            << format_double((1 - avg[1]) * 100, 1)
            << "% (paper: 6.8% / 26.3%); execution time intra "
            << format_double((1 - avg[2]) * 100, 1) << "% / inter "
            << format_double((1 - avg[3]) * 100, 1)
            << "% (paper: 3.5% / 18.9%)\n";
  return 0;
}
