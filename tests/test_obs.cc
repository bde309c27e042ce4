// Tests for the observability layer: metrics registry, recording macros,
// trace sessions, thread-pool instrumentation, and the exact-match
// guarantee between cache counters and EngineResult aggregates.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <fstream>
#include <sstream>

#include <cmath>
#include <map>

#include "core/pipeline.h"
#include "obs/metrics.h"
#include "obs/run_record.h"
#include "obs/trace.h"
#include "sim/engine.h"
#include "sim/experiment.h"
#include "support/stats.h"
#include "support/thread_pool.h"
#include "support/units.h"
#include "workloads/registry.h"

namespace mlsc {
namespace {

/// Turns metrics on for one test and restores the previous state.
struct ScopedMetrics {
  ScopedMetrics() : was_enabled(obs::metrics_enabled()) {
    obs::set_metrics_enabled(true);
    obs::Registry::global().reset();
  }
  ~ScopedMetrics() { obs::set_metrics_enabled(was_enabled); }
  bool was_enabled;
};

std::string slurp(const std::string& path) {
  std::ifstream in(path);
  std::stringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

TEST(Metrics, CounterGaugeHistogramBasics) {
  ScopedMetrics scoped;
  auto& registry = obs::Registry::global();

  auto& counter = registry.counter("test.counter");
  counter.inc();
  counter.add(41);
  EXPECT_EQ(counter.value(), 42u);
  EXPECT_EQ(&registry.counter("test.counter"), &counter);  // find, not create

  auto& gauge = registry.gauge("test.gauge");
  gauge.set(2.5);
  EXPECT_DOUBLE_EQ(gauge.value(), 2.5);

  auto& hist = registry.histogram("test.hist", {1.0, 10.0, 100.0});
  hist.observe(0.5);
  hist.observe(5.0);
  hist.observe(50.0);
  hist.observe(500.0);  // overflow bucket
  EXPECT_EQ(hist.total_count(), 4u);
  EXPECT_EQ(hist.bucket_count(0), 1u);
  EXPECT_EQ(hist.bucket_count(1), 1u);
  EXPECT_EQ(hist.bucket_count(2), 1u);
  EXPECT_EQ(hist.bucket_count(3), 1u);
  EXPECT_DOUBLE_EQ(hist.sum(), 555.5);

  registry.reset();
  EXPECT_EQ(counter.value(), 0u);
  EXPECT_DOUBLE_EQ(gauge.value(), 0.0);
  EXPECT_EQ(hist.total_count(), 0u);
}

TEST(Metrics, MacrosRecordOnlyWhenEnabled) {
  // Disabled: the macro body must not touch the registry.
  obs::set_metrics_enabled(false);
  MLSC_COUNTER_INC("test.macro_counter");
  {
    ScopedMetrics scoped;
    // The counter is registered lazily at the first enabled hit.
    MLSC_COUNTER_INC("test.macro_counter");
    MLSC_COUNTER_ADD("test.macro_counter", 9);
    EXPECT_EQ(obs::Registry::global().counter("test.macro_counter").value(),
              10u);
    MLSC_GAUGE_SET("test.macro_gauge", 7);
    EXPECT_DOUBLE_EQ(obs::Registry::global().gauge("test.macro_gauge").value(),
                     7.0);
    MLSC_HISTOGRAM_OBSERVE("test.macro_hist", 3.0, 1.0, 10.0);
    EXPECT_EQ(obs::Registry::global()
                  .histogram("test.macro_hist", {})
                  .total_count(),
              1u);
  }
  // Note: the function-local static in the macro keeps a reference, so a
  // later disabled call is a no-op via the enabled check alone.
  MLSC_COUNTER_INC("test.macro_counter");
}

TEST(Metrics, WriteJsonIsValidAndSorted) {
  ScopedMetrics scoped;
  auto& registry = obs::Registry::global();
  registry.counter("b.counter").add(2);
  registry.counter("a.counter").add(1);
  registry.gauge("g.gauge").set(1.5);
  registry.histogram("h.hist", {1.0, 2.0}).observe(1.5);

  std::ostringstream out;
  registry.write_json(out);
  const std::string json = out.str();
  EXPECT_NE(json.find("\"counters\""), std::string::npos);
  EXPECT_NE(json.find("\"a.counter\": 1"), std::string::npos);
  EXPECT_NE(json.find("\"b.counter\": 2"), std::string::npos);
  EXPECT_NE(json.find("\"g.gauge\": 1.5"), std::string::npos);
  EXPECT_NE(json.find("\"h.hist\""), std::string::npos);
  // Sorted maps: a.counter precedes b.counter.
  EXPECT_LT(json.find("\"a.counter\""), json.find("\"b.counter\""));
}

TEST(Trace, SpanLifecycleWritesTraceEvents) {
  const std::string path = ::testing::TempDir() + "mlsc_trace_test.json";
  obs::start_trace(path);
  {
    obs::Span span("test.outer");
    span.arg("count", std::uint64_t{7});
    span.arg("ratio", 0.5);
    span.arg("label", std::string("x\"y"));
    obs::Span inner("test.inner");
  }
  obs::emit_complete(obs::kClientPidBase, 0, "virtual", 100, 50);
  ASSERT_TRUE(obs::stop_trace());

  const std::string json = slurp(path);
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("\"test.outer\""), std::string::npos);
  EXPECT_NE(json.find("\"test.inner\""), std::string::npos);
  EXPECT_NE(json.find("\"count\": 7"), std::string::npos);
  EXPECT_NE(json.find("\"label\": \"x\\\"y\""), std::string::npos);
  EXPECT_NE(json.find("\"virtual\""), std::string::npos);
  // Stopping twice is a no-op.
  EXPECT_FALSE(obs::stop_trace());
  // Spans constructed after stop record nothing.
  { obs::Span late("test.late"); }
  std::remove(path.c_str());
}

TEST(Trace, CounterEventsCarryValueArg) {
  const std::string path = ::testing::TempDir() + "mlsc_trace_counter.json";
  obs::start_trace(path);
  obs::emit_counter(obs::kClientPidBase, "cache.l2.misses", 2'000, 17);
  obs::emit_counter(obs::kClientPidBase, "cache.l2.misses", 3'000, 23);
  ASSERT_TRUE(obs::stop_trace());

  const std::string json = slurp(path);
  // Chrome counter events: phase "C", a timestamp but no duration, and
  // the sampled value in args — two samples form a metric timeline.
  EXPECT_NE(json.find("\"ph\": \"C\""), std::string::npos);
  EXPECT_NE(json.find("\"cache.l2.misses\""), std::string::npos);
  EXPECT_NE(json.find("\"value\": 17"), std::string::npos);
  EXPECT_NE(json.find("\"value\": 23"), std::string::npos);
  EXPECT_NE(json.find("\"ts\": 2.000"), std::string::npos);
  std::size_t counters = 0;
  for (std::size_t pos = json.find("\"ph\": \"C\""); pos != std::string::npos;
       pos = json.find("\"ph\": \"C\"", pos + 1)) {
    ++counters;
  }
  EXPECT_EQ(counters, 2u);
  std::remove(path.c_str());
}

TEST(Trace, SpanEndClosesEarly) {
  const std::string path = ::testing::TempDir() + "mlsc_trace_end.json";
  obs::start_trace(path);
  {
    obs::Span span("test.early");
    span.end();
    span.end();  // second end is a no-op
  }
  ASSERT_TRUE(obs::stop_trace());
  const std::string json = slurp(path);
  // Exactly one completed event for the span despite destructor + end().
  std::size_t count = 0;
  for (std::size_t pos = json.find("test.early"); pos != std::string::npos;
       pos = json.find("test.early", pos + 1)) {
    ++count;
  }
  EXPECT_EQ(count, 1u);
  std::remove(path.c_str());
}

TEST(Trace, PoolChunksAppearOnPoolThreads) {
  const std::string path = ::testing::TempDir() + "mlsc_trace_pool.json";
  obs::start_trace(path);
  {
    ThreadPool pool(2);
    std::atomic<std::uint64_t> sum{0};
    pool.parallel_for(0, 1000, 100, [&](std::size_t lo, std::size_t hi) {
      std::uint64_t local = 0;
      for (std::size_t i = lo; i < hi; ++i) local += i;
      sum.fetch_add(local);
    });
    EXPECT_EQ(sum.load(), 499500u);
  }
  ASSERT_TRUE(obs::stop_trace());
  const std::string json = slurp(path);
  EXPECT_NE(json.find("\"pool chunk\""), std::string::npos);
  EXPECT_NE(json.find("\"pool thread 0\""), std::string::npos);
  std::remove(path.c_str());
}

TEST(Metrics, PoolCountersAccumulateBusyTime) {
  ScopedMetrics scoped;
  ThreadPool pool(2);
  pool.parallel_for(0, 64, 8, [&](std::size_t, std::size_t) {});
  EXPECT_GT(obs::Registry::global().counter("pool.chunks").value(), 0u);
}

// The headline guarantee: cache.l{1,2,3}.* counters and the
// EngineResult aggregates derive from the same per-access increments,
// so they match exactly.
TEST(Metrics, CacheCountersMatchEngineResult) {
  ScopedMetrics scoped;

  sim::MachineConfig config;
  config.clients = 4;
  config.io_nodes = 2;
  config.storage_nodes = 1;
  config.client_cache_bytes = 8 * 64 * kKiB;
  config.io_cache_bytes = 8 * 64 * kKiB;
  config.storage_cache_bytes = 8 * 64 * kKiB;

  const auto workload = workloads::make_workload("hf", 0.0625);
  const auto result =
      sim::run_experiment(workload, core::PipelineOptions::inter(), config);
  const auto& engine = result.engine;

  auto& registry = obs::Registry::global();
  EXPECT_EQ(registry.counter("cache.l1.accesses").value(),
            engine.l1.accesses);
  EXPECT_EQ(registry.counter("cache.l1.hits").value(), engine.l1.hits);
  EXPECT_EQ(registry.counter("cache.l1.misses").value(), engine.l1.misses);
  EXPECT_EQ(registry.counter("cache.l2.hits").value(), engine.l2.hits);
  EXPECT_EQ(registry.counter("cache.l2.misses").value(), engine.l2.misses);
  EXPECT_EQ(registry.counter("cache.l3.hits").value(), engine.l3.hits);
  EXPECT_EQ(registry.counter("cache.l3.misses").value(), engine.l3.misses);
  EXPECT_EQ(registry.counter("cache.l1.evictions").value(),
            engine.l1.evictions);
  EXPECT_EQ(registry.counter("engine.accesses").value(), engine.accesses);
  EXPECT_EQ(registry.counter("engine.disk_requests").value(),
            engine.disk_requests);
  EXPECT_GT(engine.l1.accesses, 0u);

  // The latency histogram saw every access.
  EXPECT_EQ(registry.histogram("engine.access_latency_ns", {}).total_count(),
            engine.accesses);

  // Byte accounting mirrors into the registry and into the per-cache
  // stats: the aggregate bytes-moved counter is the boundary sum, and
  // each level's bytes_served matches its hit count at chunk size.
  EXPECT_EQ(registry.counter("engine.bytes_moved").value(),
            engine.bytes.below_l1());
  EXPECT_EQ(registry.counter("engine.bytes_from_disk").value(),
            engine.bytes.from_disk);
  EXPECT_EQ(engine.l1.bytes_served,
            engine.l1.hits * config.chunk_size_bytes);
  EXPECT_EQ(registry.counter("cache.l2.bytes_served").value(),
            engine.l2.bytes_served);
  EXPECT_GT(engine.bytes.below_l1(), 0u);
}

TEST(RunRecordJson, CarriesBuildStampsWhenSet) {
  obs::RunRecord record;
  record.binary = "bench_test";
  record.build_type = "Release";
  record.git_sha = "abc123def456";
  std::ostringstream out;
  record.write_json(out);
  const std::string json = out.str();
  EXPECT_NE(json.find("\"git_sha\": \"abc123def456\""), std::string::npos);

  // Unset stamps are omitted, keeping legacy records byte-identical.
  obs::RunRecord legacy;
  legacy.binary = "bench_test";
  std::ostringstream legacy_out;
  legacy.write_json(legacy_out);
  EXPECT_EQ(legacy_out.str().find("git_sha"), std::string::npos);
}

TEST(HistogramQuantile, EmptyHistogramIsNaN) {
  obs::Histogram hist({1.0, 2.0});
  EXPECT_TRUE(std::isnan(hist.quantile(50.0)));
  obs::Histogram no_bounds({});
  no_bounds.observe(1.0);
  EXPECT_TRUE(std::isnan(no_bounds.quantile(50.0)));
}

TEST(HistogramQuantile, SingleBucketInterpolatesUniformly) {
  // Four observations inside [0, 10): the estimator assumes a uniform
  // spread, so it must agree with percentile_of on evenly spaced samples
  // (the two share quantile_rank + lerp).
  obs::Histogram hist({10.0});
  const std::vector<double> samples = {2.5, 5.0, 7.5, 10.0};
  for (double s : samples) hist.observe(s);
  EXPECT_DOUBLE_EQ(hist.quantile(50.0), 6.25);
  EXPECT_DOUBLE_EQ(hist.quantile(50.0), percentile_of(samples, 50.0));
  EXPECT_DOUBLE_EQ(hist.quantile(0.0), 2.5);
  EXPECT_DOUBLE_EQ(hist.quantile(100.0), 10.0);
}

TEST(HistogramQuantile, OverflowBucketClampsToLastBound) {
  obs::Histogram hist({1.0, 2.0});
  hist.observe(5.0);
  hist.observe(6.0);
  hist.observe(7.0);  // all land in the overflow bucket
  EXPECT_DOUBLE_EQ(hist.quantile(50.0), 2.0);
  EXPECT_DOUBLE_EQ(hist.quantile(99.0), 2.0);
}

TEST(HistogramQuantile, ExactBoundaryObservationReturnsBoundary) {
  // An observation equal to a bound lands in that bound's bucket
  // (le semantics), and a single such observation reports the bound.
  obs::Histogram hist({1.0, 2.0});
  hist.observe(1.0);
  EXPECT_DOUBLE_EQ(hist.quantile(50.0), 1.0);
  // A 50/50 split across two buckets: the p50 rank sits at the shared
  // edge and is clamped into the lower bucket's range.
  obs::Histogram split({10.0, 20.0});
  split.observe(5.0);
  split.observe(5.0);
  split.observe(15.0);
  split.observe(15.0);
  EXPECT_DOUBLE_EQ(split.quantile(50.0), 10.0);
  EXPECT_GT(split.quantile(90.0), 10.0);
  EXPECT_LE(split.quantile(90.0), 20.0);
}

TEST(Metrics, WriteJsonIncludesQuantiles) {
  ScopedMetrics scoped;
  auto& registry = obs::Registry::global();
  registry.histogram("q.hist", {10.0}).observe(5.0);
  std::ostringstream out;
  registry.write_json(out);
  EXPECT_NE(out.str().find("\"quantiles\""), std::string::npos);
  EXPECT_NE(out.str().find("\"p50\""), std::string::npos);
  EXPECT_NE(out.str().find("\"p99\""), std::string::npos);
}

TEST(Prometheus, SanitizeMetricName) {
  EXPECT_EQ(obs::sanitize_metric_name("pipeline.sweep_candidates"),
            "pipeline_sweep_candidates");
  EXPECT_EQ(obs::sanitize_metric_name("cache.l1.hit %"), "cache_l1_hit__");
  EXPECT_EQ(obs::sanitize_metric_name("2q.hits"), "_2q_hits");
  EXPECT_EQ(obs::sanitize_metric_name(""), "_");
  EXPECT_EQ(obs::sanitize_metric_name("already_ok:name"), "already_ok:name");
}

TEST(Prometheus, DumpRoundTripsRegistryValues) {
  ScopedMetrics scoped;
  auto& registry = obs::Registry::global();
  registry.counter("prom.counter").add(42);
  registry.gauge("prom.gauge").set(2.5);
  auto& hist = registry.histogram("prom.hist", {1.0, 2.0});
  hist.observe(0.5);
  hist.observe(1.5);
  hist.observe(5.0);

  std::ostringstream out;
  registry.dump_prometheus(out);

  // Parse the exposition text back into (sample name -> value) and check
  // it reproduces the registry exactly.
  std::map<std::string, double> samples;
  std::istringstream in(out.str());
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    const std::size_t space = line.rfind(' ');
    ASSERT_NE(space, std::string::npos) << line;
    samples[line.substr(0, space)] = std::stod(line.substr(space + 1));
  }
  EXPECT_DOUBLE_EQ(samples.at("prom_counter"), 42.0);
  EXPECT_DOUBLE_EQ(samples.at("prom_gauge"), 2.5);
  EXPECT_DOUBLE_EQ(samples.at("prom_hist_bucket{le=\"1\"}"), 1.0);   // 0.5
  EXPECT_DOUBLE_EQ(samples.at("prom_hist_bucket{le=\"2\"}"), 2.0);   // cumulative
  EXPECT_DOUBLE_EQ(samples.at("prom_hist_bucket{le=\"+Inf\"}"), 3.0);
  EXPECT_DOUBLE_EQ(samples.at("prom_hist_sum"), 7.0);
  EXPECT_DOUBLE_EQ(samples.at("prom_hist_count"), 3.0);
  // Type lines exist for every family.
  EXPECT_NE(out.str().find("# TYPE prom_counter counter"), std::string::npos);
  EXPECT_NE(out.str().find("# TYPE prom_gauge gauge"), std::string::npos);
  EXPECT_NE(out.str().find("# TYPE prom_hist histogram"), std::string::npos);
  // ... preceded by help lines naming the original dotted registry name.
  EXPECT_NE(out.str().find("# HELP prom_counter mlsc counter 'prom.counter'"),
            std::string::npos);
  EXPECT_NE(out.str().find("# HELP prom_gauge mlsc gauge 'prom.gauge'"),
            std::string::npos);
  EXPECT_NE(out.str().find("# HELP prom_hist mlsc histogram 'prom.hist'"),
            std::string::npos);
  EXPECT_LT(out.str().find("# HELP prom_counter"),
            out.str().find("# TYPE prom_counter"));
}

TEST(Metrics, WriteMetricsFileProducesJson) {
  ScopedMetrics scoped;
  obs::Registry::global().counter("file.counter").add(3);
  const std::string path = ::testing::TempDir() + "mlsc_metrics_test.json";
  ASSERT_TRUE(obs::write_metrics_file(path));
  const std::string json = slurp(path);
  EXPECT_NE(json.find("\"file.counter\": 3"), std::string::npos);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace mlsc
