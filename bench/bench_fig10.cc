// Figure 10 — normalized miss rates for the L1, L2 and L3 caches under
// the intra-processor and inter-processor schemes (original = 1.0).
//
// Paper's headline: intra reduces L1 by 16.2% but barely touches L2/L3
// (2.1%/0.5%); inter reduces all three (15.3%/31.0%/24.6%).
#include "bench/common.h"

int main(int argc, char** argv) {
  mlsc::bench::parse_common_flags(argc, argv);
  using namespace mlsc;
  const auto machine = sim::MachineConfig::paper_default();
  bench::print_header(
      "Figure 10: normalized L1/L2/L3 miss rates (original = 1.0)", machine);

  Table table({"app", "intra L1", "intra L2", "intra L3", "inter L1",
               "inter L2", "inter L3"});
  // Local miss *rates* deflate their own denominator when an upper level
  // improves (fewer, colder accesses flow down), so the companion table
  // reports normalized absolute miss *counts* per level — the quantity
  // that actually reaches the next level and the disks.
  Table misses({"app", "intra L1", "intra L2", "intra L3", "inter L1",
                "inter L2", "inter L3"});
  std::vector<double> sums(6, 0.0);
  std::vector<double> miss_sums(6, 0.0);
  const auto apps = bench::bench_apps();
  for (const auto& name : apps) {
    const auto workload = workloads::make_workload(name);
    const auto orig =
        bench::run(workload, core::PipelineOptions::original(), machine);
    const auto intra =
        bench::run(workload, core::PipelineOptions::intra(), machine);
    const auto inter =
        bench::run(workload, core::PipelineOptions::inter(), machine);
    const double values[6] = {
        intra.l1_miss_rate / orig.l1_miss_rate,
        intra.l2_miss_rate / orig.l2_miss_rate,
        intra.l3_miss_rate / orig.l3_miss_rate,
        inter.l1_miss_rate / orig.l1_miss_rate,
        inter.l2_miss_rate / orig.l2_miss_rate,
        inter.l3_miss_rate / orig.l3_miss_rate,
    };
    auto ratio = [](std::uint64_t a, std::uint64_t b) {
      return b == 0 ? 1.0 : static_cast<double>(a) / static_cast<double>(b);
    };
    const double miss_values[6] = {
        ratio(intra.engine.l1.misses, orig.engine.l1.misses),
        ratio(intra.engine.l2.misses, orig.engine.l2.misses),
        ratio(intra.engine.l3.misses, orig.engine.l3.misses),
        ratio(inter.engine.l1.misses, orig.engine.l1.misses),
        ratio(inter.engine.l2.misses, orig.engine.l2.misses),
        ratio(inter.engine.l3.misses, orig.engine.l3.misses),
    };
    std::vector<double> row(values, values + 6);
    std::vector<double> miss_row(miss_values, miss_values + 6);
    for (int i = 0; i < 6; ++i) {
      sums[i] += values[i];
      miss_sums[i] += miss_values[i];
    }
    table.add_row_numeric(name, row, 3);
    misses.add_row_numeric(name, miss_row, 3);
  }
  std::vector<double> avg;
  std::vector<double> miss_avg;
  for (double s : sums) avg.push_back(s / static_cast<double>(apps.size()));
  for (double s : miss_sums) {
    miss_avg.push_back(s / static_cast<double>(apps.size()));
  }
  table.add_row_numeric("average", avg, 3);
  misses.add_row_numeric("average", miss_avg, 3);
  std::cout << "normalized local miss rates (misses / accesses at that "
               "level):\n";
  bench::print_table(table);
  std::cout << "normalized absolute miss counts (traffic reaching the next "
               "level):\n";
  bench::print_table(misses);

  std::cout << "average miss-rate reductions: intra "
            << format_double((1 - avg[0]) * 100, 1) << "%/"
            << format_double((1 - avg[1]) * 100, 1) << "%/"
            << format_double((1 - avg[2]) * 100, 1) << "% (paper: "
            << "16.2%/2.1%/0.5%), inter "
            << format_double((1 - avg[3]) * 100, 1) << "%/"
            << format_double((1 - avg[4]) * 100, 1) << "%/"
            << format_double((1 - avg[5]) * 100, 1)
            << "% (paper: 15.3%/31.0%/24.6%)\n";
  return 0;
}
