// §5.1 ablation — "our approach itself can work with any storage caching
// policy": the inter-processor savings under six replacement policies
// (LRU as in the paper, plus the related-work alternatives) and the
// three placement modes.
#include "bench/common.h"

int main(int argc, char** argv) {
  mlsc::bench::parse_common_flags(argc, argv);
  using namespace mlsc;
  bench::print_header(
      "Ablation: replacement policy and placement mode (inter vs original)",
      sim::MachineConfig::paper_default());

  const std::vector<cache::PolicyKind> policies = {
      cache::PolicyKind::kLru,  cache::PolicyKind::kFifo,
      cache::PolicyKind::kClock, cache::PolicyKind::kLfu,
      cache::PolicyKind::kTwoQ, cache::PolicyKind::kMq,
      cache::PolicyKind::kArc,
  };
  const auto apps = mlsc::bench::bench_apps({"hf", "astro", "madbench2"});

  Table table({"policy", "orig I/O (s)", "inter I/O (s)", "normalized"});
  for (const auto policy : policies) {
    sim::MachineConfig machine = sim::MachineConfig::paper_default();
    machine.policy = policy;
    double orig_io = 0.0;
    double inter_io = 0.0;
    for (const auto& name : apps) {
      const auto workload = workloads::make_workload(name);
      orig_io += static_cast<double>(
          bench::run(workload, core::PipelineOptions::original(), machine)
              .io_latency);
      inter_io += static_cast<double>(
          bench::run(workload, core::PipelineOptions::inter(), machine)
              .io_latency);
    }
    table.add_row({cache::policy_kind_name(policy),
                   format_double(orig_io / 1e9, 1),
                   format_double(inter_io / 1e9, 1),
                   format_double(inter_io / orig_io, 3)});
  }
  bench::print_table(table);

  Table placement({"placement", "orig I/O (s)", "inter I/O (s)",
                   "normalized"});
  for (const auto mode :
       {cache::PlacementMode::kAccessBased, cache::PlacementMode::kEvictionBased,
        cache::PlacementMode::kExclusive}) {
    sim::MachineConfig machine = sim::MachineConfig::paper_default();
    machine.placement = mode;
    double orig_io = 0.0;
    double inter_io = 0.0;
    for (const auto& name : apps) {
      const auto workload = workloads::make_workload(name);
      orig_io += static_cast<double>(
          bench::run(workload, core::PipelineOptions::original(), machine)
              .io_latency);
      inter_io += static_cast<double>(
          bench::run(workload, core::PipelineOptions::inter(), machine)
              .io_latency);
    }
    placement.add_row({cache::placement_mode_name(mode),
                       format_double(orig_io / 1e9, 1),
                       format_double(inter_io / 1e9, 1),
                       format_double(inter_io / orig_io, 3)});
  }
  bench::print_table(placement);
  std::cout << "claim under test: the mapping's benefit is not tied to the "
               "LRU policy\n";
  return 0;
}
