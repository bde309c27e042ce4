// §7 future-work experiment: irregular data access patterns.
//
// The unstructured-mesh edge sweep accesses node records through index
// arrays, so no static (affine) locality transformation applies — the
// intra-processor pass is blind here.  Chunk-level tagging still sees
// the sharing (edges touching the same nodes), so the inter-processor
// mapping effectively graph-partitions the edge list.  The sweep varies
// how shuffled the edge list is.
#include "bench/common.h"
#include "workloads/irregular.h"

int main(int argc, char** argv) {
  mlsc::bench::parse_common_flags(argc, argv);
  using namespace mlsc;
  const auto machine = sim::MachineConfig::paper_default();
  bench::print_header(
      "Future work: irregular access patterns (edge sweep, normalized to "
      "original per shuffle level)",
      machine);

  Table table({"shuffle", "orig disk reqs", "inter disk reqs", "I/O",
               "exec"});
  for (double shuffle : {0.0, 0.2, 0.5, 1.0}) {
    const auto workload = workloads::make_irregular(1.0, shuffle);
    const auto orig =
        bench::run(workload, core::PipelineOptions::original(), machine);
    const auto inter =
        bench::run(workload, core::PipelineOptions::inter(), machine);
    table.add_row(
        {format_double(shuffle, 2),
         std::to_string(orig.engine.disk_requests),
         std::to_string(inter.engine.disk_requests),
         bench::norm(static_cast<double>(inter.io_latency),
                     static_cast<double>(orig.io_latency)),
         bench::norm(static_cast<double>(inter.exec_time),
                     static_cast<double>(orig.exec_time))});
  }
  bench::print_table(table);
  std::cout << "expected shape: the mapping's edge shrinks as the list "
               "approaches full shuffle (no structure left to recover)\n";
  return 0;
}
