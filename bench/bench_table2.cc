// Table 2 — application programs: per-app data-set sizes and the
// absolute L1/L2/L3 storage-cache miss rates of the original version
// under the Table 1 default parameters.
#include "bench/common.h"

int main(int argc, char** argv) {
  mlsc::bench::parse_common_flags(argc, argv);
  using namespace mlsc;
  const auto machine = sim::MachineConfig::paper_default();
  bench::print_header("Table 2: application programs, original version",
                      machine);

  Table table({"name", "description", "data (paper scale)", "L1 miss %",
               "L2 miss %", "L3 miss %"});
  for (const auto& name : bench::bench_apps()) {
    const auto workload = workloads::make_workload(name);
    const auto r =
        bench::run(workload, core::PipelineOptions::original(), machine);
    table.add_row({workload.name, workload.description,
                   format_bytes(workload.simulated_data_bytes() * 64),
                   format_double(r.l1_miss_rate * 100, 1),
                   format_double(r.l2_miss_rate * 100, 1),
                   format_double(r.l3_miss_rate * 100, 1)});
  }
  bench::print_table(table, "table2");
  std::cout << "paper reference rows (miss %%): hf 21.3/40.4/47.9, "
               "sar 16.0/23.3/44.4, contour 15.3/39.3/67.1, astro "
               "28.4/54.4/76.4, e_elem 8.3/33.6/49.9, apsi 17.7/25.4/36.0, "
               "madbench2 20.6/34.7/56.5, wupwise 20.8/36.3/52.8\n";
  return 0;
}
