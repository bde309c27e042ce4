// Scaling benchmark for the parallel mapping pipeline: sweeps synthetic
// iteration-chunk tables over (chunk count x thread count) and times the
// three parallel stages — the similarity graph's pair scoring
// (graph_ms: score_chunk_tags, with no CSR freeze since no graph object
// is built), hierarchical clustering, and the full map_chunks run —
// verifying along the way that every thread count produces a mapping
// bit-identical to the serial one.
//
// Output: the standard table on stdout plus a machine-readable JSON file,
// BENCH_scaling.json by default (override with --json=<path>).
#include <algorithm>
#include <chrono>
#include <iostream>
#include <limits>
#include <string>
#include <vector>

#include "bench/common.h"
#include "core/clustering.h"
#include "core/mapper.h"
#include "core/pair_scorer.h"
#include "support/check.h"
#include "support/rng.h"
#include "support/string_util.h"
#include "support/thread_pool.h"
#include "support/units.h"
#include "topology/hierarchy.h"

namespace {

using namespace mlsc;

// Tags draw their bits from a window that slides across the data space
// with the chunk index, so nearby chunks share many data chunks and
// distant ones share none — the structured locality the clustering stage
// sees in real workloads (and the regime where the inverted index
// actually has work to do).
std::vector<core::IterationChunk> make_chunks(std::size_t n, std::size_t width,
                                              Rng& rng) {
  std::vector<core::IterationChunk> chunks;
  chunks.reserve(n);
  std::uint64_t pos = 0;
  for (std::size_t i = 0; i < n; ++i) {
    const std::size_t window_lo = i * width / n;
    std::vector<std::uint32_t> bits;
    bits.reserve(24);
    for (int b = 0; b < 24; ++b) {
      bits.push_back(static_cast<std::uint32_t>(
          (window_lo + rng.next_below(width / 8)) % width));
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

bool equal_mappings(const core::MappingResult& a, const core::MappingResult& b) {
  if (a.client_work.size() != b.client_work.size()) return false;
  for (std::size_t c = 0; c < a.client_work.size(); ++c) {
    const auto& wa = a.client_work[c];
    const auto& wb = b.client_work[c];
    if (wa.size() != wb.size()) return false;
    for (std::size_t i = 0; i < wa.size(); ++i) {
      if (wa[i].nest != wb[i].nest || wa[i].iterations != wb[i].iterations ||
          wa[i].chunk != wb[i].chunk || wa[i].ranges.size() != wb[i].ranges.size()) {
        return false;
      }
      for (std::size_t r = 0; r < wa[i].ranges.size(); ++r) {
        if (wa[i].ranges[r].begin != wb[i].ranges[r].begin ||
            wa[i].ranges[r].end != wb[i].ranges[r].end) {
          return false;
        }
      }
    }
  }
  return true;
}

double elapsed_ms(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - start)
      .count();
}

}  // namespace

int main(int argc, char** argv) {
  bench::parse_common_flags(argc, argv, "BENCH_scaling.json");
  bench::set_record_seed(2010);
  bench::set_record_apps({"synthetic-windowed"});
  const std::size_t reps = bench::repetitions();

  const std::vector<std::size_t> chunk_counts = {1024, 4096, 8192};
  const std::vector<std::size_t> thread_counts = {1, 2, 4};
  const std::size_t width = 4096;  // data chunks in the synthetic space

  const auto tree =
      topology::make_layered_hierarchy(8, 4, 2, 4 * kMiB, 4 * kMiB, 4 * kMiB);

  std::cout << "== scaling: parallel mapping pipeline ==\n"
            << "synthetic chunk tables, " << width
            << " data chunks, windowed sharing; times in ms\n\n";

  Table table({"chunks", "threads", "graph_ms", "cluster_ms", "map_ms",
               "map_speedup", "identical"});
  bool all_identical = true;

  for (const std::size_t n : chunk_counts) {
    Rng rng(2010);
    const auto chunks = make_chunks(n, width, rng);
    core::MappingResult serial_mapping;
    double serial_map_ms = 0.0;

    for (const std::size_t threads : thread_counts) {
      ThreadPool pool(threads);
      ThreadPool* pool_ptr = threads > 1 ? &pool : nullptr;

      // Each stage runs --reps times; the table reports the fastest run
      // (the min is the standard noise-robust statistic for wall clock).
      const auto timed_min = [&](auto&& body) {
        double best = std::numeric_limits<double>::infinity();
        for (std::size_t rep = 0; rep < reps; ++rep) {
          const auto t0 = std::chrono::steady_clock::now();
          body();
          best = std::min(best, elapsed_ms(t0));
        }
        return best;
      };

      std::size_t graph_nodes = 0;
      const double graph_ms = timed_min([&] {
        graph_nodes = core::score_chunk_tags(chunks, pool_ptr).size();
      });

      const double cluster_ms = timed_min([&] {
        auto working = chunks;
        std::vector<std::uint32_t> ids(working.size());
        for (std::uint32_t i = 0; i < ids.size(); ++i) ids[i] = i;
        auto clusters = core::make_singletons(ids, working);
        core::cluster_to_count(clusters, 16, working, pool_ptr);
      });

      core::HierarchicalMapperOptions options;
      options.num_threads = threads;
      const core::HierarchicalMapper mapper(tree, options);
      core::MappingResult mapping;
      const double map_ms =
          timed_min([&] { mapping = mapper.map_chunks(chunks); });

      bool identical = true;
      if (threads == 1) {
        serial_mapping = mapping;
        serial_map_ms = map_ms;
      } else {
        identical = equal_mappings(serial_mapping, mapping);
        all_identical = all_identical && identical;
      }

      std::cerr << "[bench] chunks=" << n << " threads=" << threads
                << " graph=" << format_double(graph_ms, 1)
                << "ms cluster=" << format_double(cluster_ms, 1)
                << "ms map=" << format_double(map_ms, 1) << "ms\n";

      table.add_row({std::to_string(n), std::to_string(threads),
                     format_double(graph_ms, 2), format_double(cluster_ms, 2),
                     format_double(map_ms, 2),
                     map_ms > 0.0 ? format_double(serial_map_ms / map_ms, 2)
                                  : "n/a",
                     identical ? "yes" : "NO"});
      MLSC_CHECK(graph_nodes == n, "pair scorer lost rows");
    }
  }

  bench::print_table(table, "scaling");

  if (!all_identical) {
    std::cerr << "FAILED: a threaded mapping diverged from the serial one\n";
    return 1;
  }
  std::cout << "all threaded mappings bit-identical to serial\n";
  return 0;
}
