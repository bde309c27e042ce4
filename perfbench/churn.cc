// The `churn` workload: one closed-loop caller sends a seeded event
// stream to serve::MappingService, each event after the previous one
// settled, against a standing state registered during set-up.  After the
// stream every live instance's settled placement is replayed solo on the
// engine, which gives the online mapper's simulated cost.
#include <algorithm>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "arith.h"
#include "bench.h"
#include "churn_stream.h"
#include "core/data_space.h"
#include "obs/trace.h"
#include "serve/event.h"
#include "serve/service.h"
#include "sim/trace.h"

namespace perfbench {

namespace {

using namespace mlsc;

struct Settled {
  double ms = 0.0;
  serve::EventKind kind = serve::EventKind::kRegister;
  serve::RemapScope scope = serve::RemapScope::kNone;
  serve::DeltaStats delta;
  double imbalance = 0.0;  // after settling
};

struct Replay {
  sim::EngineResult engine;
  std::vector<sim::LevelMovement> movement;
  double total_s = 0.0;  // trace + replay + bound host time
  double sim_s = 0.0;    // generate_trace + run_engine host time
};

struct ChurnPass {
  double wall_s = 0.0;
  double settle_s = 0.0;
  std::vector<Settled> settled;
  std::vector<Replay> replays;
  std::string fingerprint;  // state fingerprint + every replay's
  double pause_ms = 0.0;
  std::size_t standing_chunks = 0;
  std::size_t clusters = 0;
};

/// Each parsed event must serialize back to the exact line it came from.
bool round_trips(const std::string& text,
                 const std::vector<serve::ServeEvent>& events) {
  std::istringstream lines(text);
  std::string line;
  std::getline(lines, line);  // schema header
  for (const serve::ServeEvent& event : events) {
    if (!std::getline(lines, line) || serve::event_to_json(event) != line) {
      return false;
    }
  }
  return !std::getline(lines, line);
}

std::unique_ptr<serve::MappingService> build_service(
    const serve::ServiceOptions& options,
    const std::vector<serve::ServeEvent>& standing) {
  auto service = std::make_unique<serve::MappingService>(options);
  for (const serve::ServeEvent& event : standing) service->process(event);
  return service;
}

/// Solo replay of one live instance's settled placement.
Replay replay_entry(const serve::MappingState& state, std::size_t widx,
                    SpanLog* log, Checks& checks) {
  SpanLog::Scope span(log, "experiment");
  const serve::WorkloadEntry& entry = state.entries()[widx];
  const poly::Program& program = entry.workload.program;
  const core::MappingResult mapping = state.entry_mapping(widx);
  const core::DataSpace space(program, state.machine().chunk_size_bytes);
  Replay r;
  sim::Trace trace;
  const std::uint64_t start = now_ns();
  {
    SpanLog::Scope layer(log, "trace");
    trace = sim::generate_trace(program, space, mapping);
  }
  {
    SpanLog::Scope layer(log, "engine");
    r.engine = sim::run_engine(trace, mapping, state.machine(), state.tree());
  }
  r.sim_s = seconds_since(start);
  {
    SpanLog::Scope layer(log, "bound");
    r.movement = sim::movement_vs_bound(entry.workload, state.machine(),
                                        r.engine);
  }
  r.total_s = seconds_since(start);
  std::uint64_t traced_iterations = 0;
  for (const auto& client : trace.clients) {
    traced_iterations += client.total_iterations();
  }
  checks.record(stalls_sum(r.engine) && headroom_bounded(r.movement) &&
                    traced_iterations == entry.total_iterations &&
                    mapping.total_iterations() == entry.total_iterations,
                "replay " + entry.id);
  return r;
}

ChurnPass run_pass(serve::MappingService& service,
                   const std::vector<serve::ServeEvent>& events, SpanLog* log,
                   const std::string& program_trace, Checks& checks) {
  ChurnPass pass;
  const std::uint64_t start = now_ns();
  {
    SpanLog::Scope span(log, "pass");
    if (log != nullptr) obs::start_trace(program_trace);
    for (std::size_t i = 0; i < events.size(); ++i) {
      Settled s;
      s.kind = events[i].kind;
      bool ok = true;
      const std::uint64_t t = now_ns();
      try {
        SpanLog::Scope layer(log, "serve");
        const serve::ServeDecision decision = service.process(events[i]);
        s.scope = decision.scope;
        s.delta = decision.delta;
        s.imbalance = decision.imbalance_after;
      } catch (const std::exception& e) {
        ok = false;
        checks.failures.push_back("event " + std::to_string(i) + ": " +
                                  e.what());
      }
      s.ms = static_cast<double>(now_ns() - t) * 1e-6;
      pass.settle_s += s.ms * 1e-3;
      checks.record(ok, "event " + std::to_string(i));
      pass.settled.push_back(s);
    }
    if (log != nullptr) obs::stop_trace();

    const serve::MappingState& state = service.state();
    try {
      state.check_invariants();
    } catch (const std::exception& e) {
      checks.require(false, std::string("invariants: ") + e.what());
    }
    pass.fingerprint = state.fingerprint();
    for (std::size_t widx = 0; widx < state.entries().size(); ++widx) {
      if (!state.entries()[widx].live) continue;
      pass.replays.push_back(replay_entry(state, widx, log, checks));
      const Replay& r = pass.replays.back();
      pass.fingerprint += '\n';
      pass.fingerprint += sim_fingerprint(r.engine, 0, r.movement);
    }
    pass.standing_chunks = state.standing_chunks();
    pass.clusters = state.clusters().size();
    pass.pause_ms = static_cast<double>(service.total_pause()) * 1e-6;
  }
  pass.wall_s = seconds_since(start);
  return pass;
}

/// Host-time values from untraced passes over the same stream: each
/// event's settle time and each replay's time are the fastest of its
/// passes.
Values best_times(const std::vector<ChurnPass>& passes) {
  const ChurnPass& first = passes.front();
  std::vector<double> settle_ms;
  double settle_s = 0.0;
  for (std::size_t i = 0; i < first.settled.size(); ++i) {
    double ms = first.settled[i].ms;
    for (const ChurnPass& pass : passes) ms = std::min(ms, pass.settled[i].ms);
    settle_ms.push_back(ms);
    settle_s += ms * 1e-3;
  }
  std::sort(settle_ms.begin(), settle_ms.end());
  double replay_s = 0.0, sim_s = 0.0, accesses = 0.0;
  for (std::size_t j = 0; j < first.replays.size(); ++j) {
    double total = first.replays[j].total_s, sim = first.replays[j].sim_s;
    for (const ChurnPass& pass : passes) {
      if (j >= pass.replays.size()) continue;  // end states differed
      total = std::min(total, pass.replays[j].total_s);
      sim = std::min(sim, pass.replays[j].sim_s);
    }
    replay_s += total;
    sim_s += sim;
    accesses += static_cast<double>(first.replays[j].engine.accesses);
  }
  Values v;
  v["wall_s"] = settle_s + replay_s;
  v["map_s"] = settle_s;
  v["map_p50_ms"] = median(settle_ms);
  v["map_tail_ms"] = percentile_nearest_rank(
      settle_ms, tail_percentile(settle_ms.size()));
  v["map_tail_pct"] = tail_percentile(settle_ms.size());
  v["sim_maccess_per_s"] = accesses / sim_s * 1e-6;
  return v;
}

/// Deterministic values of a pass: the end state and its replays.
void modelled_values(const ChurnPass& pass, Values& values) {
  double exec_s = 0.0, l2 = 0.0, l3 = 0.0, imbalance = 0.0;
  std::vector<const sim::EngineResult*> runs;
  for (const Replay& r : pass.replays) {
    exec_s += static_cast<double>(r.engine.exec_time) * 1e-9;
    l2 += r.movement[1].headroom_pct;
    l3 += r.movement[2].headroom_pct;
    runs.push_back(&r.engine);
  }
  const auto n = static_cast<double>(pass.replays.size());
  values["sim_exec_s"] = exec_s;
  values["headroom.l2_pct"] = l2 / n;
  values["headroom.l3_pct"] = l3 / n;
  engine_values(runs, values);

  double counts[4] = {0, 0, 0, 0};
  double scored = 0, hooks = 0;
  for (const Settled& s : pass.settled) {
    imbalance += s.imbalance;
    counts[static_cast<int>(s.scope)] += 1;
    scored += static_cast<double>(s.delta.scored_pairs);
    hooks += static_cast<double>(s.delta.forest_hooks);
  }
  values["mean_imbalance"] =
      imbalance / static_cast<double>(pass.settled.size());
  values["serve.patch_n"] = counts[static_cast<int>(serve::RemapScope::kPatch)];
  values["serve.partial_n"] =
      counts[static_cast<int>(serve::RemapScope::kPartial)];
  values["serve.full_n"] = counts[static_cast<int>(serve::RemapScope::kFull)];
  values["serve.scored_pairs"] = scored;
  values["serve.forest_hooks"] = hooks;
  values["serve.standing_chunks"] = static_cast<double>(pass.standing_chunks);
  values["serve.modelled_pause_ms"] = pass.pause_ms;
}

/// Sum (ms) of `inner` spans lying inside some `outer` span of the same
/// thread.
double nested_ms(const std::vector<ProgramSpan>& spans, const std::string& inner,
                 const std::string& outer) {
  double total_us = 0.0;
  for (const ProgramSpan& in : spans) {
    if (in.name != inner) continue;
    for (const ProgramSpan& out : spans) {
      if (out.name == outer && out.tid == in.tid && out.ts_us <= in.ts_us &&
          in.ts_us + in.dur_us <= out.ts_us + out.dur_us) {
        total_us += in.dur_us;
        break;
      }
    }
  }
  return total_us * 1e-3;
}

void layer_values(const ChurnPass& untraced, const ChurnPass& traced,
                  const SpanLog& log, const std::vector<ProgramSpan>& program,
                  Values& values) {
  const auto layers = log.layers();
  auto total_ms = [&](const char* name) {
    const auto it = layers.find(name);
    return it == layers.end() ? 0.0 : it->second.total_ms;
  };
  const double wall_ms = traced.wall_s * 1e3;
  double attributed = 0.0;
  for (const char* layer : {"serve", "trace", "engine", "bound"}) {
    values[std::string(layer) + ".share_pct"] =
        100.0 * total_ms(layer) / wall_ms;
    attributed += total_ms(layer);
  }
  values["pass.unattributed_pct"] = 100.0 * (wall_ms - attributed) / wall_ms;
  values["trace_overhead_pct"] =
      100.0 * (traced.wall_s - untraced.wall_s) / untraced.wall_s;

  // Settle time by event kind, as a share of all settle time.
  double by_kind[4] = {0, 0, 0, 0};
  for (const Settled& s : traced.settled) {
    by_kind[static_cast<int>(s.kind)] += s.ms;
  }
  const double settle_ms = traced.settle_s * 1e3;
  values["serve.register_pct"] = 100.0 * by_kind[0] / settle_ms;
  values["serve.depart_pct"] = 100.0 * by_kind[1] / settle_ms;
  values["serve.scale_pct"] = 100.0 * by_kind[2] / settle_ms;
  values["serve.fault_pct"] = 100.0 * by_kind[3] / settle_ms;
  values["serve.events_per_s"] =
      static_cast<double>(traced.settled.size()) / traced.settle_s;

  // Inside process(): tagging, and the online mapper (forest scoring and
  // hooking on register, forest rebuild, recut + placement).
  double iterations = 0.0, tag_chunks = 0.0, new_chunks = 0.0;
  for (const ProgramSpan& span : program) {
    if (span.name == "pipeline.tagging") {
      iterations += span.args.count("iterations") ? span.args.at("iterations") : 0;
      tag_chunks += span.args.count("chunks") ? span.args.at("chunks") : 0;
    } else if (span.name == "pipeline.serve_register") {
      new_chunks += span.args.count("new_chunks") ? span.args.at("new_chunks") : 0;
    }
  }
  const double tagging_ms = span_ms(program, "pipeline.tagging");
  const double forest_ms =
      span_ms(program, "pipeline.serve_register") -
      nested_ms(program, "pipeline.tagging", "pipeline.serve_register") +
      span_ms(program, "pipeline.serve_rebuild") -
      nested_ms(program, "pipeline.serve_recut", "pipeline.serve_rebuild");
  const double recut_ms = span_ms(program, "pipeline.serve_recut");
  const double mapper_ms = forest_ms + recut_ms;
  values["tagging.ms"] = tagging_ms;
  values["tagging.share_pct"] = 100.0 * tagging_ms / wall_ms;
  values["tagging.iterations"] = iterations;
  values["tagging.chunks"] = tag_chunks;
  values["tagging.iter_per_us"] =
      tagging_ms > 0 ? iterations / (tagging_ms * 1e3) : 0.0;
  values["mapper.ms"] = mapper_ms;
  values["mapper.share_pct"] = 100.0 * mapper_ms / wall_ms;
  values["mapper.chunks_in"] = new_chunks;
  values["mapper.chunks_out"] = static_cast<double>(traced.clusters);
  values["mapper.chunks_per_ms"] = new_chunks / mapper_ms;
  values["mapper.clustering_pct"] = 100.0 * forest_ms / mapper_ms;
  values["mapper.balance_pct"] = 100.0 * recut_ms / mapper_ms;
  values["mapper.unattributed_pct"] = 0.0;  // defined from the spans

  // The engine replays every access the trace holds.
  double accesses = 0.0;
  for (const Replay& r : traced.replays) {
    accesses += static_cast<double>(r.engine.accesses);
  }
  values["trace.ms"] = total_ms("trace");
  values["trace.accesses"] = accesses;
  values["trace.maccess_per_s"] = accesses / (total_ms("trace") * 1e3);
  values["engine.ms"] = total_ms("engine");
  values["engine.accesses"] = accesses;
  values["engine.ns_per_access"] = total_ms("engine") * 1e6 / accesses;
  values["bound.ms"] = total_ms("bound");
}

}  // namespace

void run_churn(const RunOptions& options, Values& values, Checks& checks) {
  const ChurnShape shape;
  const std::string text = churn_stream_text(options.seed, shape);
  const std::vector<serve::ServeEvent> all = serve::parse_event_stream(text);
  checks.require(round_trips(text, all), "event stream round trip");
  checks.require(all.size() == shape.slots + shape.events(),
                 "event stream length");
  const std::vector<serve::ServeEvent> standing(
      all.begin(), all.begin() + static_cast<std::ptrdiff_t>(shape.slots));
  const std::vector<serve::ServeEvent> events(
      all.begin() + static_cast<std::ptrdiff_t>(shape.slots), all.end());

  serve::ServiceOptions service_options;
  service_options.machine = sim::MachineConfig::paper_default();
  // One mapping thread: parallel settles are at the mercy of every other
  // tenant of a shared host, and measured twice as noisy.
  service_options.num_threads = 1;
  service_options.seed = options.seed;
  service_options.state.tagging.max_iteration_chunks = 1024;
  service_options.drift_sample = 0;
  values["mapping_threads"] = 1;

  std::vector<double> setup_s;
  auto setup = [&] {
    const std::uint64_t start = now_ns();
    auto service = build_service(service_options, standing);
    setup_s.push_back(seconds_since(start));
    return service;
  };
  std::unique_ptr<serve::MappingService> service;
  while (keep_setting_up(setup_s)) {
    service.reset();
    service = setup();
  }

  if (!options.trace) {
    std::vector<ChurnPass> passes;
    for (std::size_t k = 0; k < timed_passes(options.seconds); ++k) {
      if (k > 0) {
        service.reset();
        service = setup();
      }
      passes.push_back(run_pass(*service, events, nullptr, "", checks));
      checks.require(passes.back().fingerprint == passes.front().fingerprint,
                     "end state identical in every pass");
    }
    for (const auto& [name, value] : best_times(passes)) values[name] = value;
    values["setup_s"] = median(setup_s);
    values["passes"] = static_cast<double>(passes.size());
    modelled_values(passes.front(), values);
    return;
  }

  const ChurnPass untraced = run_pass(*service, events, nullptr, "", checks);
  service.reset();
  service = setup();
  SpanLog log;
  const std::string program_trace = options.out_dir + "/serve-trace.json";
  const ChurnPass traced =
      run_pass(*service, events, &log, program_trace, checks);
  checks.require(traced.fingerprint == untraced.fingerprint,
                 "traced and untraced end states identical");
  values["setup_s"] = median(setup_s);
  values["passes"] = 2;
  print_layers(log, traced.wall_s * 1e3);
  modelled_values(traced, values);
  layer_values(untraced, traced, log, read_program_spans(program_trace),
               values);
  checks.require(log.write_chrome_trace(options.out_dir + "/spans-" +
                                        options.workload + ".json"),
                 "write span trace");
}

}  // namespace perfbench
