// Similarity-pipeline benchmark (DESIGN.md §15): sweeps synthetic
// iteration-chunk tables from 8k chunks upward and times the similarity
// graph build against the exhaustive reference where feasible —
//   graph_ms    inverted-index pair scoring + CSR freeze
//   exact_ms    the O(n^2) sparse reference sweep (rows small enough to
//               afford it)
//   cluster_ms  the affinity-forest clustering kernel
//   greedy_ms   the greedy merge oracle (same feasibility cutoff)
//   map_ms      the full hierarchical map end-to-end
// plus the candidate-pair reduction ratio (scored / all pairs — the
// deterministic CI-guarded metric) and the banding variant's pair count.
// A second table reports mapping quality: the engine-simulated cost
// (exec time) of real workloads mapped with the greedy oracle vs the
// forest kernel.
//
// Output: tables on stdout plus BENCH_similarity.json (override with
// --json=<path>).  Extra flags:
//   --max-chunks=N  largest sweep size (default 262144, up to 1048576)
//   --exact-cap=N   run the exact oracle up to N chunks (default 8192)
//   --threads=N     mapping threads, 0 = all cores (default 0)
//   --target=N      clusters per clustering timing run (default 16)
//   --bands=N --rows=N  minhash banding for the banded column
//                       (default 8 bands x 2 rows)
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstring>
#include <iostream>
#include <limits>
#include <string>
#include <vector>

#include "bench/common.h"
#include "core/clustering.h"
#include "core/graph.h"
#include "core/mapper.h"
#include "sim/experiment.h"
#include "support/check.h"
#include "support/rng.h"
#include "support/string_util.h"
#include "support/thread_pool.h"
#include "support/units.h"
#include "topology/hierarchy.h"

namespace {

using namespace mlsc;

// Windowed-sharing generator (same locality structure as bench_scaling,
// scaled down in density so posting lists stay bounded as n grows): the
// data space holds 2n chunks, each iteration chunk draws 16 bits from a
// window sliding with its index, so similarity is local and the inverted
// index yields O(1) candidates per row at every n.
std::vector<core::IterationChunk> make_chunks(std::size_t n, Rng& rng) {
  const std::size_t width = 2 * n;
  std::vector<core::IterationChunk> chunks;
  chunks.reserve(n);
  std::uint64_t pos = 0;
  for (std::size_t i = 0; i < n; ++i) {
    const std::size_t window_lo = i * width / n;
    std::vector<std::uint32_t> bits;
    bits.reserve(16);
    for (int b = 0; b < 16; ++b) {
      bits.push_back(static_cast<std::uint32_t>(
          (window_lo + rng.next_below(std::max<std::size_t>(width / 16, 1))) %
          width));
    }
    core::IterationChunk c;
    c.tag = core::ChunkTag::from_bits(std::move(bits));
    const std::uint64_t len = 20 + rng.next_below(80);
    c.ranges = {poly::LinearRange{pos, pos + len}};
    c.iterations = len;
    pos += len;
    chunks.push_back(std::move(c));
  }
  return chunks;
}

double elapsed_ms(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - start)
      .count();
}

std::size_t parse_size_flag(const std::string& arg, const char* name) {
  const std::string value = arg.substr(std::strlen(name));
  char* end = nullptr;
  const unsigned long long parsed = std::strtoull(value.c_str(), &end, 10);
  if (value.empty() || end != value.c_str() + value.size()) {
    std::cerr << "error: " << name << " needs a number\n";
    std::exit(2);
  }
  return static_cast<std::size_t>(parsed);
}

}  // namespace

int main(int argc, char** argv) {
  std::vector<char*> args(argv, argv + argc);
  static char default_json[] = "--json=BENCH_similarity.json";
  bool has_json = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--json=", 7) == 0) has_json = true;
  }
  if (!has_json) args.push_back(default_json);
  bench::parse_common_flags(static_cast<int>(args.size()), args.data());
  bench::set_record_seed(2010);
  bench::set_record_apps({"synthetic-windowed", "sar", "astro"});
  const std::size_t reps = bench::repetitions();

  std::size_t max_chunks = 262144;
  std::size_t exact_cap = 8192;
  std::size_t threads = 0;
  std::size_t target = 16;
  core::MinhashParams banding{.bands = 8, .rows = 2};
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--max-chunks=", 0) == 0) {
      max_chunks = parse_size_flag(arg, "--max-chunks=");
    } else if (arg.rfind("--exact-cap=", 0) == 0) {
      exact_cap = parse_size_flag(arg, "--exact-cap=");
    } else if (arg.rfind("--threads=", 0) == 0) {
      threads = parse_size_flag(arg, "--threads=");
    } else if (arg.rfind("--target=", 0) == 0) {
      target = parse_size_flag(arg, "--target=");
    } else if (arg.rfind("--bands=", 0) == 0) {
      banding.bands = static_cast<std::uint32_t>(
          parse_size_flag(arg, "--bands="));
    } else if (arg.rfind("--rows=", 0) == 0) {
      banding.rows = static_cast<std::uint32_t>(
          parse_size_flag(arg, "--rows="));
    }
  }
  MLSC_CHECK(max_chunks <= (1u << 20), "--max-chunks tops out at 1048576");

  std::vector<std::size_t> chunk_counts;
  for (const std::size_t n :
       {std::size_t{8192}, std::size_t{32768}, std::size_t{131072},
        std::size_t{262144}, std::size_t{524288}, std::size_t{1048576}}) {
    if (n <= max_chunks) chunk_counts.push_back(n);
  }

  ThreadPool pool(threads);
  ThreadPool* pool_ptr = pool.num_threads() > 1 ? &pool : nullptr;
  const auto tree =
      topology::make_layered_hierarchy(8, 4, 2, 4 * kMiB, 4 * kMiB, 4 * kMiB);

  std::cout << "== similarity: sub-quadratic graph + affinity forest ==\n"
            << "synthetic chunk tables, 2n data chunks, windowed sharing; "
               "times in ms\n"
            << "exact oracle columns up to " << exact_cap
            << " chunks; banded column: " << banding.bands << " bands x "
            << banding.rows << " rows\n\n";

  const auto timed_min = [&](auto&& body) {
    double best = std::numeric_limits<double>::infinity();
    for (std::size_t rep = 0; rep < reps; ++rep) {
      const auto t0 = std::chrono::steady_clock::now();
      body();
      best = std::min(best, elapsed_ms(t0));
    }
    return best;
  };

  Table table({"chunks", "graph_ms", "exact_ms", "graph_speedup",
               "candidate_pairs", "reduction_ratio", "banded_pairs",
               "cluster_ms", "greedy_ms", "map_ms"});

  for (const std::size_t n : chunk_counts) {
    Rng rng(2010);
    const auto chunks = make_chunks(n, rng);
    const bool feasible = n <= exact_cap;

    // Pair scoring + freeze.  The graph is built in a nested scope so its
    // CSR is freed before the clustering and map runs; only the stats
    // survive.
    core::GraphStats stats;
    std::size_t num_edges = 0;
    const double graph_ms = timed_min([&] {
      core::GraphOptions options;
      options.pool = pool_ptr;
      const core::ChunkGraph graph(chunks, options);
      stats = graph.stats();
      num_edges = graph.num_edges();
    });

    // Banding variant: same build with the LSH filter on; the surviving
    // pair count is deterministic (SplitMix64, pinned seed).
    core::GraphStats banded_stats;
    timed_min([&] {
      core::GraphOptions options;
      options.pool = pool_ptr;
      options.banding = banding;
      const core::ChunkGraph graph(chunks, options);
      banded_stats = graph.stats();
    });

    double exact_ms = std::numeric_limits<double>::quiet_NaN();
    if (feasible) {
      exact_ms = timed_min([&] {
        MLSC_CHECK(core::exhaustive_similarity_edges(chunks).size() ==
                       num_edges,
                   "candidate graph lost edges vs the exhaustive sweep");
      });
    }

    // Clustering — the forest kernel, and the greedy oracle on feasible
    // rows.
    const double cluster_ms = timed_min([&] {
      auto working = chunks;
      std::vector<std::uint32_t> ids(working.size());
      for (std::uint32_t i = 0; i < ids.size(); ++i) ids[i] = i;
      auto clusters = core::make_singletons(ids, working);
      core::ClusterOptions options;
      options.algorithm = core::ClusterOptions::Algorithm::kForest;
      core::cluster_to_count(clusters, target, working, pool_ptr, options);
    });
    double greedy_ms = std::numeric_limits<double>::quiet_NaN();
    if (feasible) {
      greedy_ms = timed_min([&] {
        auto working = chunks;
        std::vector<std::uint32_t> ids(working.size());
        for (std::uint32_t i = 0; i < ids.size(); ++i) ids[i] = i;
        auto clusters = core::make_singletons(ids, working);
        core::ClusterOptions options;
        options.algorithm = core::ClusterOptions::Algorithm::kGreedy;
        core::cluster_to_count(clusters, target, working, pool_ptr, options);
      });
    }

    // End to end: the full hierarchical map with the forest kernel at
    // every level (kAuto would hand sub-threshold levels to the greedy
    // merge, whose lopsided splits cost the load balancer a move per
    // member — the quadratic path this kernel exists to avoid).
    core::HierarchicalMapperOptions map_options;
    map_options.clustering.algorithm = core::ClusterOptions::Algorithm::kForest;
    map_options.num_threads = threads;
    const core::HierarchicalMapper mapper(tree, map_options);
    std::size_t mapped_clients = 0;
    const double map_ms = timed_min([&] {
      const auto mapping = mapper.map_chunks(chunks);
      mapped_clients = mapping.num_clients();
    });
    MLSC_CHECK(mapped_clients == tree.num_clients(),
               "map lost clients at " << n << " chunks");

    std::cerr << "[bench] chunks=" << n << " graph="
              << format_double(graph_ms, 1) << "ms cluster="
              << format_double(cluster_ms, 1) << "ms map="
              << format_double(map_ms, 1) << "ms pairs="
              << stats.scored_pairs << "/" << stats.total_pairs << "\n";

    const auto opt = [](double v, int digits) {
      return std::isfinite(v) ? format_double(v, digits) : std::string("-");
    };
    table.add_row(
        {std::to_string(n), format_double(graph_ms, 2), opt(exact_ms, 2),
         std::isfinite(exact_ms) && graph_ms > 0.0
             ? format_double(exact_ms / graph_ms, 2)
             : "-",
         std::to_string(stats.scored_pairs),
         format_double(stats.reduction_ratio(), 6),
         std::to_string(banded_stats.scored_pairs),
         format_double(cluster_ms, 2), opt(greedy_ms, 2),
         format_double(map_ms, 2)});
  }
  bench::print_table(table, "similarity");

  // Mapping quality: real workloads through the full engine, mapped with
  // the greedy oracle vs the forest kernel.  The simulated cost (exec
  // time) is deterministic, so the delta is an exact quality statement,
  // not a measurement.
  Table quality({"workload", "greedy_cost", "forest_cost", "cost_ratio",
                 "greedy_l2_miss", "forest_l2_miss"});
  const auto machine = sim::MachineConfig::paper_default();
  for (const std::string& name : {std::string("sar"), std::string("astro")}) {
    const auto workload = workloads::make_workload(name, 1.0);
    sim::SchemeSpec greedy = sim::SchemeSpec::inter();
    greedy.clustering.algorithm = core::ClusterOptions::Algorithm::kGreedy;
    sim::SchemeSpec forest = sim::SchemeSpec::inter();
    forest.clustering.algorithm = core::ClusterOptions::Algorithm::kForest;
    const auto g = bench::run(workload, greedy, machine);
    const auto f = bench::run(workload, forest, machine);
    quality.add_row(
        {name, std::to_string(g.exec_time), std::to_string(f.exec_time),
         g.exec_time > 0
             ? format_double(static_cast<double>(f.exec_time) /
                                 static_cast<double>(g.exec_time),
                             4)
             : "n/a",
         format_double(g.l2_miss_rate, 4), format_double(f.l2_miss_rate, 4)});
  }
  bench::print_table(quality, "forest quality");

  std::cout << "largest sweep size mapped end-to-end: "
            << chunk_counts.back() << " chunks\n";
  return 0;
}
