// §5.4 ablation — handling loops with data dependences: the two
// strategies the paper describes (merge dependent chunks into one
// cluster vs distribute + synchronize) on the dependence-carrying
// applications (apsi and e_elem have cross-sweep flow dependences).
#include "bench/common.h"

int main(int argc, char** argv) {
  mlsc::bench::parse_common_flags(argc, argv);
  using namespace mlsc;
  const auto machine = sim::MachineConfig::paper_default();
  bench::print_header(
      "Ablation: dependence strategies (merge-clusters vs synchronize)",
      machine);

  const auto apps = mlsc::bench::bench_apps({"apsi", "e_elem"});

  Table table({"app", "strategy", "I/O (normalized)", "exec (normalized)",
               "sync wait (s)", "sync edges"});
  for (const auto& name : apps) {
    const auto workload = workloads::make_workload(name);
    const auto orig =
        bench::run(workload, core::PipelineOptions::original(), machine);
    for (const auto strategy : {core::DependenceStrategy::kMergeClusters,
                                core::DependenceStrategy::kSynchronize}) {
      core::PipelineOptions spec = core::PipelineOptions::inter();
      spec.dependences = strategy;
      const auto r = bench::run(workload, spec, machine);
      table.add_row(
          {name, core::dependence_strategy_name(strategy),
           bench::norm(static_cast<double>(r.io_latency),
                       static_cast<double>(orig.io_latency)),
           bench::norm(static_cast<double>(r.exec_time),
                       static_cast<double>(orig.exec_time)),
           format_double(
               static_cast<double>(r.engine.sync_wait_total) / 1e9 /
                   static_cast<double>(machine.clients),
               2),
           std::to_string(r.sync_edges)});
    }
  }
  bench::print_table(table);
  std::cout << "paper: the implementation uses the synchronize strategy; "
               "merging avoids sync at the cost of parallelism\n";
  return 0;
}
