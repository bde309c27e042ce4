// The offline workloads, `paper` and `bigmap`: map every app through the
// public pipeline, expand the trace, replay it on the engine and compare
// the movement with the I/O lower bound — the path every evaluation
// bench takes.  The traced run repeats the pass once more with the
// inter-scheme pipeline split into its public calls, each inside a
// benchmark-owned span.
#include <algorithm>
#include <map>
#include <memory>
#include <numeric>
#include <optional>
#include <string>
#include <vector>

#include "arith.h"
#include "bench.h"
#include "core/dependences.h"
#include "core/mapper.h"
#include "core/pipeline.h"
#include "core/tagging.h"
#include "obs/trace.h"
#include "sim/trace.h"
#include "support/rng.h"
#include "support/thread_pool.h"
#include "workloads/registry.h"

namespace perfbench {

namespace {

using namespace mlsc;

// Figure 11's headline improvements of the inter-processor scheme over
// the original version, in percent.
constexpr double kPaperExecImprovementPct = 18.9;
constexpr double kPaperIoImprovementPct = 26.3;


struct Spec {
  std::vector<std::string> apps;
  std::vector<double> size_factors;
  sim::MachineConfig machine;
  bool with_original = false;
  core::PipelineOptions inter;
};

struct App {
  std::string name;
  workloads::Workload workload;
  std::unique_ptr<core::DataSpace> space;
};

struct Setup {
  topology::HierarchyTree tree;
  std::vector<std::unique_ptr<App>> apps;
};

struct Experiment {
  std::string label;
  bool inter = false;
  bool ok = false;
  double total_s = 0.0;  // map + trace + replay + bound host time
  double map_s = 0.0;
  double sim_s = 0.0;  // generate_trace + run_engine host time
  sim::EngineResult engine;
  std::vector<sim::LevelMovement> movement;
  std::size_t sync_edges = 0;
  double imbalance = 0.0;
  std::string fingerprint;
  // Traced sequence only.
  std::uint64_t iterations = 0;
  std::size_t dep_edges = 0;
  std::size_t chunks_in = 0;
  std::size_t chunks_out = 0;
  double clustering_ms = 0.0;
  double balance_ms = 0.0;
};

struct Pass {
  double wall_s = 0.0;
  std::vector<Experiment> experiments;
};

std::unique_ptr<Setup> build_setup(const Spec& spec) {
  auto setup =
      std::make_unique<Setup>(Setup{spec.machine.build_tree(), {}});
  for (std::size_t i = 0; i < spec.apps.size(); ++i) {
    auto app = std::make_unique<App>();
    app->name = spec.apps[i];
    app->workload =
        workloads::make_workload(spec.apps[i], spec.size_factors[i]);
    app->space = std::make_unique<core::DataSpace>(
        app->workload.program, spec.machine.chunk_size_bytes);
    setup->apps.push_back(std::move(app));
  }
  return setup;
}

/// The inter-scheme pipeline as its public calls, in MappingPipeline::run
/// order, each inside a span; the mapper call also records the program's
/// own spans so its clustering and balance time can be read back.
core::MappingResult map_in_layers(const Setup& setup, const Spec& spec,
                                  const App& app, SpanLog* log,
                                  const std::string& program_trace,
                                  Experiment& x) {
  const core::PipelineOptions& opts = spec.inter;
  const poly::Program& program = app.workload.program;
  std::optional<ThreadPool> pool;
  if (resolve_num_threads(opts.num_threads) > 1) pool.emplace(opts.num_threads);
  std::vector<poly::NestId> nests(program.nests.size());
  std::iota(nests.begin(), nests.end(), 0u);

  core::TaggingResult tagging;
  {
    SpanLog::Scope span(log, "tagging");
    tagging = core::compute_iteration_chunks(program, *app.space, nests,
                                             opts.tagging,
                                             pool ? &*pool : nullptr);
  }
  x.iterations = tagging.total_iterations;
  x.chunks_in = tagging.chunks.size();
  {
    SpanLog::Scope span(log, "dependences");
    for (poly::NestId nest : nests) {
      x.dep_edges +=
          core::find_chunk_dependences(program, nest, tagging.chunks).size();
    }
  }

  core::HierarchicalMapperOptions mapper_options;
  mapper_options.balance_threshold = opts.balance_threshold;
  mapper_options.tagging = opts.tagging;
  mapper_options.clustering = opts.clustering;
  mapper_options.num_threads = opts.num_threads;
  const core::HierarchicalMapper mapper(setup.tree, mapper_options);
  core::MappingResult mapping;
  obs::start_trace(program_trace);
  {
    SpanLog::Scope span(log, "mapper");
    mapping = mapper.map_chunks(std::move(tagging.chunks));
  }
  obs::stop_trace();
  const auto spans = read_program_spans(program_trace);
  x.clustering_ms = span_ms(spans, "pipeline.clustering");
  x.balance_ms = span_ms(spans, "pipeline.load_balance");
  x.chunks_out = mapping.chunk_table.size();

  {
    SpanLog::Scope span(log, "dependences");
    std::vector<core::ChunkDependence> deps;
    for (poly::NestId nest : nests) {
      auto more =
          core::find_chunk_dependences(program, nest, mapping.chunk_table);
      deps.insert(deps.end(), more.begin(), more.end());
    }
    core::insert_sync_edges(mapping, deps, &program);
  }
  return mapping;
}

/// One experiment: map (run_all, or the split sequence when traced),
/// trace, replay, bound; then the output checks.
Experiment run_experiment(const Setup& setup, const Spec& spec,
                          const App& app, bool inter, SpanLog* log,
                          const std::string& program_trace) {
  SpanLog::Scope span(log, "experiment");
  const std::uint64_t begin = now_ns();
  Experiment x;
  x.label = app.name + (inter ? "/inter" : "/original");
  x.inter = inter;
  const poly::Program& program = app.workload.program;

  core::MappingResult mapping;
  std::uint64_t start = now_ns();
  if (inter && log != nullptr) {
    mapping = map_in_layers(setup, spec, app, log, program_trace, x);
  } else {
    SpanLog::Scope pipeline(log, "pipeline");
    core::PipelineOptions opts = spec.inter;
    if (!inter) opts.mapper = core::MapperKind::kOriginal;
    mapping = core::MappingPipeline(setup.tree, opts).run_all(program,
                                                               *app.space);
  }
  x.map_s = seconds_since(start);

  sim::Trace trace;
  start = now_ns();
  {
    SpanLog::Scope layer(log, "trace");
    trace = sim::generate_trace(program, *app.space, mapping);
  }
  {
    SpanLog::Scope layer(log, "engine");
    x.engine = sim::run_engine(trace, mapping, spec.machine, setup.tree);
  }
  x.sim_s = seconds_since(start);
  {
    SpanLog::Scope layer(log, "bound");
    x.movement = sim::movement_vs_bound(app.workload, spec.machine, x.engine);
  }
  x.total_s = seconds_since(begin);

  x.sync_edges = mapping.sync_edges.size();
  x.imbalance = mapping.imbalance();
  x.fingerprint = sim_fingerprint(x.engine, x.sync_edges, x.movement);
  std::uint64_t traced_iterations = 0;
  for (const auto& client : trace.clients) {
    traced_iterations += client.total_iterations();
  }
  const std::uint64_t iterations = program.total_iterations();
  x.ok = stalls_sum(x.engine) && headroom_bounded(x.movement) &&
         traced_iterations == iterations &&
         mapping.total_iterations() == iterations;
  return x;
}

Pass run_pass(const Setup& setup, const Spec& spec, SpanLog* log,
              const std::string& program_trace) {
  Pass pass;
  const std::uint64_t start = now_ns();
  {
    SpanLog::Scope span(log, "pass");
    for (const auto& app : setup.apps) {
      if (spec.with_original) {
        pass.experiments.push_back(
            run_experiment(setup, spec, *app, false, log, program_trace));
      }
      pass.experiments.push_back(
          run_experiment(setup, spec, *app, true, log, program_trace));
    }
  }
  pass.wall_s = seconds_since(start);
  return pass;
}

std::vector<const Experiment*> inter_of(const Pass& pass) {
  std::vector<const Experiment*> out;
  for (const auto& x : pass.experiments) {
    if (x.inter) out.push_back(&x);
  }
  return out;
}

/// Deterministic (simulated) values: identical in every pass.
void modelled_values(const Spec& spec, const Pass& pass, Values& values) {
  double exec_s = 0.0;
  double imbalance = 0.0;
  const auto inter = inter_of(pass);
  for (const Experiment* x : inter) {
    exec_s += static_cast<double>(x->engine.exec_time) * 1e-9;
    imbalance += x->imbalance;
  }
  values["sim_exec_s"] = exec_s;
  values["mean_imbalance"] = imbalance / static_cast<double>(inter.size());

  std::vector<const sim::EngineResult*> runs;
  for (const auto& x : pass.experiments) runs.push_back(&x.engine);
  engine_values(runs, values);

  double l2 = 0.0, l3 = 0.0, sync_edges = 0.0;
  for (const Experiment* x : inter) {
    l2 += x->movement[1].headroom_pct;
    l3 += x->movement[2].headroom_pct;
    sync_edges += static_cast<double>(x->sync_edges);
  }
  values["headroom.l2_pct"] = l2 / static_cast<double>(inter.size());
  values["headroom.l3_pct"] = l3 / static_cast<double>(inter.size());
  values["sync.edges"] = sync_edges;

  if (spec.with_original) {
    std::vector<double> inter_exec, orig_exec, inter_io, orig_io;
    const std::size_t clients = spec.machine.clients;
    for (std::size_t i = 0; i + 1 < pass.experiments.size(); i += 2) {
      const auto& orig = pass.experiments[i].engine;
      const auto& in = pass.experiments[i + 1].engine;
      orig_exec.push_back(static_cast<double>(orig.exec_time));
      inter_exec.push_back(static_cast<double>(in.exec_time));
      orig_io.push_back(static_cast<double>(orig.io_time_mean(clients)));
      inter_io.push_back(static_cast<double>(in.io_time_mean(clients)));
    }
    const double exec = mean_of_ratios(inter_exec, orig_exec);
    const double io = mean_of_ratios(inter_io, orig_io);
    values["fidelity.inter_vs_original_exec"] = exec;
    values["fidelity.inter_vs_original_io"] = io;
    values["fig11.exec_gap_pts"] = gap_points(exec, kPaperExecImprovementPct);
    values["fig11.io_gap_pts"] = gap_points(io, kPaperIoImprovementPct);
  }
}

/// Host-time values from untraced passes: each experiment's times are
/// the fastest of its passes.
Values best_times(const std::vector<Pass>& passes) {
  Values v;
  std::vector<double> requests_ms;
  double wall_s = 0.0, map_s = 0.0, sim_s = 0.0, accesses = 0.0;
  for (std::size_t i = 0; i < passes.front().experiments.size(); ++i) {
    const Experiment& x = passes.front().experiments[i];
    double total = x.total_s, map = x.map_s, sim = x.sim_s;
    for (const Pass& pass : passes) {
      total = std::min(total, pass.experiments[i].total_s);
      map = std::min(map, pass.experiments[i].map_s);
      sim = std::min(sim, pass.experiments[i].sim_s);
    }
    wall_s += total;
    sim_s += sim;
    accesses += static_cast<double>(x.engine.accesses);
    if (!x.inter) continue;
    map_s += map;
    requests_ms.push_back(map * 1e3);
  }
  std::sort(requests_ms.begin(), requests_ms.end());
  v["wall_s"] = wall_s;
  v["map_s"] = map_s;
  v["map_p50_ms"] = median(requests_ms);
  v["map_tail_ms"] = percentile_nearest_rank(
      requests_ms, tail_percentile(requests_ms.size()));
  v["map_tail_pct"] = tail_percentile(requests_ms.size());
  v["sim_maccess_per_s"] = accesses / sim_s * 1e-6;
  return v;
}

void layer_values(const Pass& untraced, const Pass& traced,
                  const SpanLog& log, Values& values) {
  const auto layers = log.layers();
  auto total_ms = [&](const char* name) {
    const auto it = layers.find(name);
    return it == layers.end() ? 0.0 : it->second.total_ms;
  };
  const double wall_ms = traced.wall_s * 1e3;
  double attributed = 0.0;
  for (const char* layer : {"tagging", "dependences", "mapper", "pipeline",
                            "trace", "engine", "bound"}) {
    values[std::string(layer) + ".share_pct"] =
        100.0 * total_ms(layer) / wall_ms;
    attributed += total_ms(layer);
  }
  values["pass.unattributed_pct"] = 100.0 * (wall_ms - attributed) / wall_ms;
  values["trace_overhead_pct"] =
      100.0 * (traced.wall_s - untraced.wall_s) / untraced.wall_s;

  double iterations = 0, chunks_in = 0, chunks_out = 0, dep_edges = 0;
  double clustering_ms = 0, balance_ms = 0, accesses = 0;
  for (const auto& x : traced.experiments) {
    accesses += static_cast<double>(x.engine.accesses);
    if (!x.inter) continue;
    iterations += static_cast<double>(x.iterations);
    chunks_in += static_cast<double>(x.chunks_in);
    chunks_out += static_cast<double>(x.chunks_out);
    dep_edges += static_cast<double>(x.dep_edges);
    clustering_ms += x.clustering_ms;
    balance_ms += x.balance_ms;
  }
  const double tagging_ms = total_ms("tagging");
  const double mapper_ms = total_ms("mapper");
  const double trace_ms = total_ms("trace");
  const double engine_ms = total_ms("engine");
  values["tagging.ms"] = tagging_ms;
  values["tagging.iterations"] = iterations;
  values["tagging.chunks"] = chunks_in;
  values["tagging.iter_per_us"] = iterations / (tagging_ms * 1e3);
  values["dependences.edges"] = dep_edges;
  values["mapper.ms"] = mapper_ms;
  values["mapper.chunks_in"] = chunks_in;
  values["mapper.chunks_out"] = chunks_out;
  values["mapper.chunks_per_ms"] = chunks_in / mapper_ms;
  values["mapper.clustering_pct"] = 100.0 * clustering_ms / mapper_ms;
  values["mapper.balance_pct"] = 100.0 * balance_ms / mapper_ms;
  values["mapper.unattributed_pct"] =
      100.0 * (mapper_ms - clustering_ms - balance_ms) / mapper_ms;
  values["trace.ms"] = trace_ms;
  values["trace.accesses"] = accesses;
  values["trace.maccess_per_s"] = accesses / (trace_ms * 1e3);
  values["engine.ms"] = engine_ms;
  values["engine.accesses"] = accesses;
  values["engine.ns_per_access"] = engine_ms * 1e6 / accesses;
  values["bound.ms"] = total_ms("bound");
}

void run_offline(const Spec& spec, const RunOptions& options, Values& values,
                 Checks& checks) {
  std::vector<double> setup_s;
  std::unique_ptr<Setup> setup;
  while (keep_setting_up(setup_s)) {
    setup.reset();
    const std::uint64_t start = now_ns();
    setup = build_setup(spec);
    setup_s.push_back(seconds_since(start));
  }
  values["setup_s"] = median(setup_s);

  if (!options.trace) {
    std::vector<Pass> passes;
    for (std::size_t k = 0; k < timed_passes(options.seconds); ++k) {
      passes.push_back(run_pass(*setup, spec, nullptr, ""));
    }
    for (const auto& [name, value] : best_times(passes)) values[name] = value;
    for (const Pass& pass : passes) {
      for (std::size_t i = 0; i < pass.experiments.size(); ++i) {
        const Experiment& x = pass.experiments[i];
        checks.record(
            x.ok && x.fingerprint == passes.front().experiments[i].fingerprint,
            x.label);
      }
    }
    values["passes"] = static_cast<double>(passes.size());
    modelled_values(spec, passes.front(), values);
    return;
  }

  // Traced run: one untraced pass, then the same pass split into spans;
  // every experiment must come out bit-identical both ways.
  const Pass untraced = run_pass(*setup, spec, nullptr, "");
  SpanLog log;
  const std::string program_trace = options.out_dir + "/mapper-trace.json";
  const Pass traced = run_pass(*setup, spec, &log, program_trace);
  for (std::size_t i = 0; i < traced.experiments.size(); ++i) {
    const Experiment& a = untraced.experiments[i];
    const Experiment& b = traced.experiments[i];
    checks.record(a.ok, a.label);
    checks.record(b.ok && b.fingerprint == a.fingerprint,
                  b.label + " (traced sequence)");
  }
  values["passes"] = 2;
  print_layers(log, traced.wall_s * 1e3);
  modelled_values(spec, traced, values);
  layer_values(untraced, traced, log, values);
  checks.require(log.write_chrome_trace(options.out_dir + "/spans-" +
                                        options.workload + ".json"),
                 "write span trace");
}

}  // namespace

void run_paper(const RunOptions& options, Values& values, Checks& checks) {
  Spec spec;
  spec.apps = workloads::workload_names();
  spec.size_factors.assign(spec.apps.size(), 1.0);
  spec.machine = sim::MachineConfig::paper_default();
  spec.with_original = true;
  values["mapping_threads"] = 1;
  run_offline(spec, options, values, checks);
}

void run_bigmap(const RunOptions& options, Values& values, Checks& checks) {
  Spec spec;
  spec.apps = {"hf", "sar", "contour"};
  Rng rng(options.seed);
  for (std::size_t i = 0; i < spec.apps.size(); ++i) {
    spec.size_factors.push_back(0.9 + 0.2 * rng.next_double());
  }
  spec.machine = sim::MachineConfig::paper_default();
  spec.machine.write_back = true;
  spec.machine.cooperative_caching = true;
  spec.machine.readahead_chunks = 2;
  spec.inter.tagging.max_iteration_chunks = 16384;
  spec.inter.clustering.algorithm = core::ClusterOptions::Algorithm::kForest;
  spec.inter.num_threads = options.threads;
  values["mapping_threads"] = static_cast<double>(options.threads);
  run_offline(spec, options, values, checks);
}

}  // namespace perfbench
