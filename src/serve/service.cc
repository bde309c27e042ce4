#include "serve/service.h"

#include <cstdio>
#include <sstream>

#include "core/data_space.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "resilience/retry.h"
#include "sim/engine.h"
#include "sim/trace.h"
#include "support/check.h"
#include "support/log.h"
#include "support/string_util.h"

namespace mlsc::serve {

namespace {

std::uint64_t live_iterations(const MappingState& state) {
  std::uint64_t total = 0;
  for (const WorkloadEntry& e : state.entries()) {
    if (e.live) total += e.total_iterations;
  }
  return total;
}

}  // namespace

MappingService::MappingService(ServiceOptions options)
    : options_(std::move(options)),
      pool_(resolve_num_threads(options_.num_threads)),
      state_(options_.machine, options_.state) {
  if (!options_.journal_path.empty()) {
    journal_.open(options_.journal_path, std::ios::binary | std::ios::trunc);
    MLSC_CHECK(journal_.good(),
               "cannot write journal '" << options_.journal_path << "'");
    journal_ << stream_header_json(options_.seed,
                                   options_.machine.to_string())
             << "\n";
    journal_.flush();
  }
}

MappingService::~MappingService() = default;

ServeDecision MappingService::process(const ServeEvent& event) {
  obs::Span span("serve.event");
  span.arg("kind", event_kind_name(event.kind));
  now_ = std::max(now_, event.at);

  ServeDecision decision;
  decision.event = event;
  decision.imbalance_before = state_.imbalance();

  switch (event.kind) {
    case EventKind::kRegister: {
      const std::size_t widx = state_.register_workload(
          event.id, event.workload, event.size_factor, event.clients, &pool_,
          &decision.delta);
      const PatchPlan plan = state_.build_patch(widx);
      settle(decision, state_.simulate_patch(plan), &plan);
      if (options_.drift_sample > 0) capture_baseline(widx);
      break;
    }
    case EventKind::kDepart: {
      const std::size_t widx = state_.find_live(event.id);
      MLSC_CHECK(widx != static_cast<std::size_t>(-1),
                 "depart of unknown workload id '" << event.id << "'");
      state_.depart_workload(widx);
      settle(decision, state_.imbalance(), nullptr);
      break;
    }
    case EventKind::kScale: {
      const std::size_t widx = state_.find_live(event.id);
      MLSC_CHECK(widx != static_cast<std::size_t>(-1),
                 "scale of unknown workload id '" << event.id << "'");
      state_.set_requested_clients(widx, event.clients);
      // The cut target changed; only a recut can honor it, so the
      // automatic policy goes straight to partial (full adds nothing —
      // the forest did not change).
      if (options_.policy.force == ServePolicy::Force::kAuto) {
        decision.scope = RemapScope::kPartial;
        decision.reason = "cut target changed";
        state_.recut_all();
      } else {
        settle(decision, state_.imbalance(), nullptr);
      }
      break;
    }
    case EventKind::kFault: {
      const resilience::FaultSchedule schedule =
          resilience::parse_fault_spec(event.fault_spec);
      const std::size_t alive_before = state_.num_alive_clients();
      state_.apply_faults(schedule);
      decision.clusters_moved = state_.replace_orphans();
      decision.drift = probe_drift();
      const bool clients_died = state_.num_alive_clients() < alive_before;
      if (options_.policy.force == ServePolicy::Force::kAuto &&
          clients_died && options_.policy.remap.remap_on_failure) {
        // Remap-on-failure: losing a client invalidates the standing
        // cut's balance assumptions — at least a partial remap.
        decision.scope = RemapScope::kPartial;
        decision.reason = "remap on failure";
        state_.recut_all();
      } else {
        settle(decision, state_.imbalance(), nullptr);
      }
      break;
    }
  }

  decision.pause = scope_pause(options_.policy, decision.scope);
  total_pause_ += decision.pause;
  decision.imbalance_after = state_.imbalance();
  decisions_.push_back(decision);
  after_event(decisions_.back());
  span.arg("scope", remap_scope_name(decision.scope));
  span.end();
  return decisions_.back();
}

void MappingService::settle(ServeDecision& decision,
                            double imbalance_after_patch,
                            const PatchPlan* plan) {
  PolicyInputs inputs;
  inputs.imbalance_after_patch = imbalance_after_patch;
  inputs.total_iterations = live_iterations(state_);
  inputs.now = now_;
  inputs.last_full_at = last_full_at_;
  inputs.any_full_yet = any_full_yet_;
  inputs.drift_exceeded = decision.drift;
  const PolicyVerdict verdict = decide_scope(options_.policy, inputs);
  decision.scope = verdict.scope;
  decision.reason = verdict.reason;

  switch (verdict.scope) {
    case RemapScope::kNone:
      break;
    case RemapScope::kPatch:
      if (plan != nullptr) state_.apply_patch(*plan);
      break;
    case RemapScope::kPartial:
      // The forest already carries the event (hooked on register, edges
      // dropped on depart): recut + re-place over it.
      state_.recut_all();
      break;
    case RemapScope::kFull:
      state_.rebuild_all(&pool_, &decision.delta);
      last_full_at_ = now_;
      any_full_yet_ = true;
      break;
  }
}

void MappingService::capture_baseline(std::size_t widx) {
  const WorkloadEntry& e = state_.entries()[widx];
  const core::MappingResult mapping =
      state_.entry_mapping(widx, options_.drift_sample);
  const core::DataSpace space(e.workload.program,
                              options_.machine.chunk_size_bytes);
  const sim::Trace trace =
      sim::generate_trace(e.workload.program, space, mapping);
  const sim::EngineResult result = sim::run_engine(
      trace, mapping, options_.machine, state_.tree(), nullptr);
  state_.set_baseline(widx, result.l2);
}

bool MappingService::probe_drift() {
  if (options_.drift_sample == 0) return false;
  const resilience::FaultSchedule effective = state_.effective_faults();
  if (effective.empty()) return false;
  for (std::size_t widx = 0; widx < state_.entries().size(); ++widx) {
    const WorkloadEntry& e = state_.entries()[widx];
    if (!e.live || !e.has_baseline) continue;
    const core::MappingResult mapping =
        state_.entry_mapping(widx, options_.drift_sample);
    const core::DataSpace space(e.workload.program,
                                options_.machine.chunk_size_bytes);
    const sim::Trace trace =
        sim::generate_trace(e.workload.program, space, mapping);
    resilience::FaultInjector injector(effective, resilience::RetryPolicy{},
                                       state_.tree());
    const sim::EngineResult result = sim::run_engine(
        trace, mapping, options_.machine, state_.tree(), &injector);
    if (resilience::drift_exceeded(options_.policy.remap, e.baseline_l2,
                                   result.l2)) {
      MLSC_DEBUG("drift probe fired for " << e.id << ": baseline miss "
                                          << e.baseline_l2.miss_rate()
                                          << " observed "
                                          << result.l2.miss_rate());
      return true;
    }
  }
  return false;
}

void MappingService::after_event(ServeDecision& decision) {
  MLSC_COUNTER_INC("serve.events");
  switch (decision.scope) {
    case RemapScope::kNone:
      break;
    case RemapScope::kPatch:
      MLSC_COUNTER_INC("serve.decision_patch");
      break;
    case RemapScope::kPartial:
      MLSC_COUNTER_INC("serve.decision_partial");
      break;
    case RemapScope::kFull:
      MLSC_COUNTER_INC("serve.decision_full");
      break;
  }
  MLSC_COUNTER_ADD("serve.pause_ns", decision.pause);
  MLSC_COUNTER_ADD("serve.orphans_moved", decision.clusters_moved);
  MLSC_COUNTER_ADD("serve.scored_pairs", decision.delta.scored_pairs);
  MLSC_COUNTER_ADD("serve.forest_hooks", decision.delta.forest_hooks);
  MLSC_GAUGE_SET("serve.live_workloads", state_.num_live_workloads());
  MLSC_GAUGE_SET("serve.standing_chunks", state_.standing_chunks());
  MLSC_GAUGE_SET("serve.clusters", state_.clusters().size());
  MLSC_GAUGE_SET("serve.alive_clients", state_.num_alive_clients());
  MLSC_GAUGE_SET("serve.imbalance", state_.imbalance());

  if (journal_.is_open()) {
    journal_ << decision_json(decision) << "\n";
    journal_.flush();
  }
  if (!options_.prom_path.empty()) write_prom();
  if (options_.snapshot_every > 0 && !options_.snapshot_path.empty()) {
    if (++events_since_snapshot_ >= options_.snapshot_every) {
      events_since_snapshot_ = 0;
      snapshot().write_file(options_.snapshot_path);
    }
  }
  if (options_.check_invariants) state_.check_invariants();
}

void MappingService::write_prom() const {
  const std::string tmp = options_.prom_path + ".tmp";
  {
    std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
    if (!out.good()) {
      MLSC_WARN("cannot write prometheus file '" << tmp << "'");
      return;
    }
    obs::Registry::global().dump_prometheus(out);
  }
  if (std::rename(tmp.c_str(), options_.prom_path.c_str()) != 0) {
    MLSC_WARN("cannot rename '" << tmp << "' to '" << options_.prom_path
                                << "'");
  }
}

std::string MappingService::decision_json(
    const ServeDecision& decision) const {
  std::string line = event_to_json(decision.event);
  MLSC_CHECK(!line.empty() && line.back() == '}', "malformed event json");
  line.pop_back();
  std::ostringstream out;
  out << line << ",\"decision\":{\"scope\":"
      << json_quote(remap_scope_name(decision.scope))
      << ",\"reason\":" << json_quote(decision.reason)
      << ",\"imbalance_before\":" << json_number(decision.imbalance_before)
      << ",\"imbalance_after\":" << json_number(decision.imbalance_after)
      << ",\"pause_ns\":" << decision.pause
      << ",\"scored_pairs\":" << decision.delta.scored_pairs
      << ",\"forest_hooks\":" << decision.delta.forest_hooks
      << ",\"rounds\":" << decision.delta.rounds
      << ",\"clusters_moved\":" << decision.clusters_moved
      << ",\"drift\":" << (decision.drift ? "true" : "false") << "}}";
  return out.str();
}

obs::RunRecord MappingService::snapshot() const {
  obs::RunRecord record;
  record.binary = "mlsc_serve";
  record.machine = options_.machine.to_string();
  record.seed = options_.seed;
  record.has_seed = true;
  record.include_metrics = obs::metrics_enabled();

  Table workloads({"workload", "name", "clients", "chunks", "iterations"});
  for (const WorkloadEntry& e : state_.entries()) {
    if (!e.live) continue;
    workloads.add_row({e.id, e.name, std::to_string(e.requested_clients),
                       std::to_string(e.num_chunks),
                       std::to_string(e.total_iterations)});
  }
  record.tables.emplace_back("serve_workloads", std::move(workloads));

  Table clients({"client", "load", "alive"});
  for (std::size_t r = 0; r < state_.client_load().size(); ++r) {
    clients.add_row({std::to_string(r),
                     std::to_string(state_.client_load()[r]),
                     state_.client_alive()[r] ? "1" : "0"});
  }
  record.tables.emplace_back("serve_clients", std::move(clients));

  std::uint64_t counts[4] = {0, 0, 0, 0};
  std::uint64_t scored = 0;
  std::uint64_t hooks = 0;
  std::uint64_t moved = 0;
  for (const ServeDecision& d : decisions_) {
    counts[static_cast<int>(d.scope)] += 1;
    scored += d.delta.scored_pairs;
    hooks += d.delta.forest_hooks;
    moved += d.clusters_moved;
  }
  Table dec({"scope", "count"});
  dec.add_row({"patch", std::to_string(counts[1])});
  dec.add_row({"partial", std::to_string(counts[2])});
  dec.add_row({"full", std::to_string(counts[3])});
  record.tables.emplace_back("serve_decisions", std::move(dec));

  Table totals({"metric", "value"});
  totals.add_row({"events", std::to_string(decisions_.size())});
  totals.add_row(
      {"live_workloads", std::to_string(state_.num_live_workloads())});
  totals.add_row(
      {"standing_chunks", std::to_string(state_.standing_chunks())});
  totals.add_row({"clusters", std::to_string(state_.clusters().size())});
  totals.add_row(
      {"alive_clients", std::to_string(state_.num_alive_clients())});
  {
    std::ostringstream imb;
    imb.precision(17);
    imb << state_.imbalance();
    totals.add_row({"imbalance", imb.str()});
  }
  totals.add_row({"total_pause_ns", std::to_string(total_pause_)});
  totals.add_row({"scored_pairs", std::to_string(scored)});
  totals.add_row({"forest_hooks", std::to_string(hooks)});
  totals.add_row({"orphans_moved", std::to_string(moved)});
  record.tables.emplace_back("serve_totals", std::move(totals));
  return record;
}

void MappingService::run(const std::vector<ServeEvent>& events) {
  for (const ServeEvent& event : events) process(event);
  if (!options_.snapshot_path.empty()) {
    snapshot().write_file(options_.snapshot_path);
  }
  if (!options_.prom_path.empty()) write_prom();
}

}  // namespace mlsc::serve
