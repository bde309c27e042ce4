#include "sim/experiment.h"

#include <optional>
#include <ostream>
#include <utility>

#include "obs/trace.h"
#include "support/check.h"

namespace mlsc::sim {

void ExperimentResult::report(std::ostream& out) const {
  out << workload << " / " << scheme << ": miss rates L1 "
      << l1_miss_rate * 100 << "% L2 " << l2_miss_rate * 100 << "% L3 "
      << l3_miss_rate * 100 << "%, I/O latency " << format_time(io_latency)
      << ", execution time " << format_time(exec_time) << "\n";
}

ExperimentResult run_experiment(const workloads::Workload& workload,
                                const core::PipelineOptions& scheme,
                                const MachineConfig& config,
                                const ResilienceSpec* resilience) {
  const auto tree = config.build_tree();
  const core::DataSpace space(workload.program, config.chunk_size_bytes);

  ExperimentResult result;
  core::MappingPipeline pipeline(tree, scheme);
  auto mapping = pipeline.run_all(workload.program, space);

  // Degraded replay: decide up front whether the schedule's failures
  // warrant a remap; the remap run replays the redistributed mapping for
  // the whole run (plus the remap's downtime as a stall), so the
  // no-remap and remap runs face the identical fault schedule.
  std::optional<resilience::FaultInjector> injector;
  if (resilience != nullptr && !resilience->schedule.empty()) {
    resilience::FaultSchedule schedule = resilience->schedule;
    const auto decision = resilience::decide_remap(schedule, tree);
    if (resilience->remap_on_failure && decision.triggered) {
      resilience::remap_mapping(mapping, tree, schedule, scheme,
                                workload.program);
      resilience::FaultEvent pause;
      pause.kind = resilience::FaultKind::kStall;
      pause.at = decision.at;
      pause.duration = resilience::kRemapPauseNs;
      schedule.add(pause);
      result.remapped = true;
      result.remap_reason = decision.reason;
      result.remap_pause = pause.duration;
    }
    result.fault_summary = schedule.to_string();
    injector.emplace(std::move(schedule), resilience->retry, tree);
  }

  Trace trace;
  {
    obs::Span span("sim.generate_trace");
    trace = generate_trace(workload.program, space, mapping);
    span.arg("clients", static_cast<std::uint64_t>(trace.clients.size()));
  }
  EngineResult engine;
  {
    obs::Span span("sim.run_engine");
    engine = run_engine(trace, mapping, config, tree,
                        injector.has_value() ? &*injector : nullptr);
    span.arg("accesses", engine.accesses);
  }

  result.workload = workload.name;
  result.scheme = scheme.name();
  result.l1_miss_rate = engine.l1.miss_rate();
  result.l2_miss_rate = engine.l2.miss_rate();
  result.l3_miss_rate = engine.l3.miss_rate();
  result.io_latency = engine.io_time_mean(tree.num_clients());
  result.exec_time = engine.exec_time;
  result.engine = engine;
  result.sync_edges = mapping.sync_edges.size();
  result.movement = movement_vs_bound(workload, config, engine);
  return result;
}

std::vector<obs::LevelSpec> machine_level_specs(
    const MachineConfig& config) {
  const std::uint64_t l1_total = config.clients * config.client_cache_bytes;
  const std::uint64_t l2_total =
      l1_total + config.io_nodes * config.io_cache_bytes;
  const std::uint64_t l3_total =
      l2_total + config.storage_nodes * config.storage_cache_bytes;
  return {{"l1", l1_total}, {"l2", l2_total}, {"l3", l3_total}};
}

std::vector<LevelMovement> movement_vs_bound(
    const workloads::Workload& workload, const MachineConfig& config,
    const EngineResult& engine) {
  const auto specs = machine_level_specs(config);
  const auto bound = obs::compute_io_lower_bound(workload.program, specs);
  const std::uint64_t moved[3] = {engine.bytes.below_l1(),
                                  engine.bytes.below_l2(),
                                  engine.bytes.below_l3()};
  std::vector<LevelMovement> movement;
  for (std::size_t i = 0; i < specs.size(); ++i) {
    LevelMovement row;
    row.level = specs[i].name;
    row.fast_memory_bytes = specs[i].fast_memory_bytes;
    row.bytes_moved = moved[i];
    row.io_lower_bound = bound.levels[i].bound_bytes;
    row.headroom_pct =
        LevelMovement::headroom(row.io_lower_bound, row.bytes_moved);
    movement.push_back(std::move(row));
  }
  return movement;
}

double normalized(double value, double original) {
  if (original == 0.0) return 0.0;
  return value / original;
}

}  // namespace mlsc::sim
