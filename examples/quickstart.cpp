// Quickstart: map one I/O-intensive application onto the paper's default
// platform with all three schemes and print what happens at each cache
// level.
//
// Build:  cmake -B build -G Ninja && cmake --build build
// Run:    ./build/examples/quickstart [workload-name]
#include <cstdio>
#include <iostream>

#include "sim/experiment.h"
#include "support/string_util.h"
#include "support/table.h"
#include "workloads/registry.h"

int main(int argc, char** argv) {
  using namespace mlsc;

  const std::string name = argc > 1 ? argv[1] : "hf";
  const auto workload = workloads::make_workload(name);
  const auto machine = sim::MachineConfig::paper_default();

  std::cout << "workload: " << workload.name << " — "
            << workload.description << "\n"
            << "data set: " << format_bytes(workload.simulated_data_bytes())
            << " simulated (" << format_bytes(workload.paper_data_bytes)
            << " at paper scale)\n"
            << "machine:  " << machine.to_string() << "\n\n";

  const core::PipelineOptions schemes[] = {
      core::PipelineOptions::original(),
      core::PipelineOptions::intra(),
      core::PipelineOptions::inter(),
      core::PipelineOptions::inter_scheduled(),
  };

  Table table({"scheme", "L1 miss %", "L2 miss %", "L3 miss %",
               "disk reqs", "I/O latency", "exec time"});
  for (const auto& scheme : schemes) {
    const auto r = sim::run_experiment(workload, scheme, machine);
    table.add_row({r.scheme, format_double(r.l1_miss_rate * 100, 1),
                   format_double(r.l2_miss_rate * 100, 1),
                   format_double(r.l3_miss_rate * 100, 1),
                   std::to_string(r.engine.disk_requests),
                   format_time(r.io_latency), format_time(r.exec_time)});
  }
  table.print(std::cout);
  return 0;
}
