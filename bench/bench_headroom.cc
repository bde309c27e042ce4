// bench_headroom: per-level data-movement headroom across the registry.
//
// For every Table 2 application, runs the paper's best scheme
// (inter-processor) on the default machine and reports measured bytes
// crossing each cache boundary against the red-blue-pebble I/O lower
// bound (obs/lower_bound.h).  One row per workload, one column triple
// per level, so run records flatten to stable guarded metrics like
//   tables.headroom[sar].l2_headroom_pct
// — the committed BENCH_headroom.json baseline plus the diff tool's
// guarded-metric rule make any headroom drift a hard CI failure.
#include "bench/common.h"

namespace {

using namespace mlsc;

}  // namespace

int main(int argc, char** argv) {
  bench::parse_common_flags(argc, argv);
  const sim::MachineConfig machine = sim::MachineConfig::paper_default();
  bench::print_header("data-movement headroom (% of optimal)", machine);

  Table table({"workload", "l1_bytes_moved", "l1_io_lower_bound",
               "l1_headroom_pct", "l2_bytes_moved", "l2_io_lower_bound",
               "l2_headroom_pct", "l3_bytes_moved", "l3_io_lower_bound",
               "l3_headroom_pct"});
  for (const auto& name : bench::bench_apps()) {
    const auto workload = workloads::make_workload(name);
    const auto result =
        bench::run(workload, core::PipelineOptions::inter(), machine);
    std::vector<std::string> row{name};
    for (const auto& level : result.movement) {
      row.push_back(std::to_string(level.bytes_moved));
      row.push_back(std::to_string(level.io_lower_bound));
      row.push_back(format_double(level.headroom_pct, 2));
    }
    table.add_row(std::move(row));
  }
  bench::print_table(table, "headroom");
  return 0;
}
