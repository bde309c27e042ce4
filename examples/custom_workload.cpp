// Bringing your own application: write the loop-nest IR for an
// out-of-core code, validate it, map it, and inspect the result — the
// adoption path for the library's public API.
//
// The example models an out-of-core k-nearest-neighbour scoring pass:
// a query matrix streams once while a disk-resident feature catalog is
// re-read for every query block (a broadcast array, the paper's Fig. 2b
// scenario).
//
// Run: ./build/examples/custom_workload
#include <iostream>

#include "core/client_codegen.h"
#include "poly/codegen.h"
#include "sim/experiment.h"
#include "support/string_util.h"
#include "support/table.h"

int main() {
  using namespace mlsc;

  // 1. Declare the disk-resident arrays (coarse elements = I/O records).
  poly::Program program;
  program.name = "knn_score";
  const auto queries =
      program.add_array({"queries", {256, 512}, 24 * kKiB});  // 3 GiB
  const auto catalog = program.add_array({"catalog", {512}, 96 * kKiB});
  const auto scores = program.add_array({"scores", {256, 512}, 4 * kKiB});

  // 2. Write the nest: for each (query block, catalog block) pair, read
  //    both and write the score block.
  poly::LoopNest nest;
  nest.name = "score";
  nest.space = poly::IterationSpace::from_extents({256, 512});
  nest.refs = {
      {queries, poly::AccessMap::identity(2, {0, 0}), false},
      {catalog, poly::AccessMap::from_matrix({{0, 1}}, {0}), false},
      {scores, poly::AccessMap::identity(2, {0, 0}), /*is_write=*/true},
  };
  nest.compute_ns_per_iteration = 120 * kMicrosecond;
  program.add_nest(std::move(nest));
  program.validate();

  std::cout << "source nest:\n"
            << poly::emit_nest_source(program, program.nest(0)) << "\n";

  // 3. Wrap it as a workload and run the three schemes on the paper's
  //    default platform.
  workloads::Workload workload;
  workload.name = program.name;
  workload.description = "out-of-core kNN scoring (custom)";
  workload.program = program;

  const auto machine = sim::MachineConfig::paper_default();
  Table table({"scheme", "L1 miss %", "disk reqs", "I/O latency",
               "exec time"});
  for (const auto& scheme :
       {core::PipelineOptions::original(), core::PipelineOptions::inter(),
        core::PipelineOptions::inter_scheduled()}) {
    const auto r = sim::run_experiment(workload, scheme, machine);
    table.add_row({r.scheme, format_double(r.l1_miss_rate * 100, 1),
                   std::to_string(r.engine.disk_requests),
                   format_time(r.io_latency), format_time(r.exec_time)});
  }
  table.print(std::cout);

  // 4. Inspect what one client would actually execute.
  const auto tree = machine.build_tree();
  const core::DataSpace space(program, machine.chunk_size_bytes);
  core::MappingPipeline pipeline(tree);
  const auto mapping = pipeline.run_all(program, space);
  const auto source = core::emit_client_source(program, mapping, 0);
  std::cout << "\nclient 0 executes (first 20 lines):\n";
  std::size_t lines = 0;
  for (const auto& line : split(source, '\n')) {
    if (lines++ == 20) break;
    std::cout << line << "\n";
  }
  return 0;
}
