// Tests for the noise-aware run-record diff engine behind
// tools/mlsc_bench_diff: flattening, metric classification, verdicts,
// thresholds, and the exit-code contract the CI perf job relies on.
#include <gtest/gtest.h>

#include <string>

#include "obs/bench_diff.h"
#include "support/json.h"

namespace mlsc::obs {
namespace {

// A miniature but fully representative run record.
const char* kRecord = R"({
  "schema": "mlsc-run-record-v1",
  "binary": "bench_test",
  "metadata": {"machine": "m", "apps": ["hf"], "hardware_threads": 4,
               "build_type": "Release", "repetitions": 3, "seed": 2010},
  "phases": [
    {"name": "hf/inter", "wall_ms": 120.5}
  ],
  "tables": [
    {"title": "scaling",
     "header": ["chunks", "threads", "map_ms", "identical"],
     "rows": [
       ["1024", "1", "30.00", "yes"],
       ["1024", "2", "16.00", "yes"]
     ]}
  ],
  "metrics": {
    "counters": {"pipeline.balance_moves": 17},
    "gauges": {"g.load": 0.5},
    "histograms": {
      "engine.access_latency_ns": {
        "bounds": [100, 1000], "counts": [5, 3, 2], "count": 10,
        "sum": 4200,
        "quantiles": {"p50": 350.0, "p90": 900.0, "p99": 1000.0}}
    }
  }
})";

std::string patched(const std::string& from, const std::string& to) {
  std::string text = kRecord;
  const std::size_t pos = text.find(from);
  EXPECT_NE(pos, std::string::npos) << from;
  text.replace(pos, from.size(), to);
  return text;
}

TEST(BenchDiff, TimingClassification) {
  EXPECT_TRUE(is_timing_metric("tables.scaling[1024/2].map_ms"));
  EXPECT_TRUE(is_timing_metric("phases.hf/inter.wall_ms"));
  EXPECT_TRUE(is_timing_metric("histograms.engine.access_latency_ns.p99"));
  EXPECT_TRUE(is_timing_metric("tables.t[r].exec_time_s"));
  EXPECT_TRUE(is_timing_metric("tables.t[r].map_speedup"));
  EXPECT_FALSE(is_timing_metric("tables.cache levels[L1].misses"));
  EXPECT_FALSE(is_timing_metric("counters.pipeline.balance_moves"));
}

TEST(BenchDiff, FlattensAllSections) {
  const auto metrics = flatten_run_record(parse_json(kRecord));
  auto has = [&](const std::string& name) {
    for (const auto& m : metrics) {
      if (m.name == name) return true;
    }
    return false;
  };
  // Duplicate first-column labels are disambiguated with the second.
  EXPECT_TRUE(has("tables.scaling[1024/1].map_ms"));
  EXPECT_TRUE(has("tables.scaling[1024/2].map_ms"));
  EXPECT_TRUE(has("phases.hf/inter.wall_ms"));
  EXPECT_TRUE(has("counters.pipeline.balance_moves"));
  EXPECT_TRUE(has("gauges.g.load"));
  EXPECT_TRUE(has("histograms.engine.access_latency_ns.p50"));
  EXPECT_TRUE(has("histograms.engine.access_latency_ns.count"));
  // Non-numeric cells ("yes") flatten to nothing.
  EXPECT_FALSE(has("tables.scaling[1024/1].identical"));
  EXPECT_EQ(record_repetitions(parse_json(kRecord)), 3u);
  EXPECT_EQ(record_repetitions(parse_json("{}")), 1u);
}

TEST(BenchDiff, IdenticalRecordsExitZero) {
  const JsonValue record = parse_json(kRecord);
  const DiffResult result = diff_run_records(record, record);
  EXPECT_GT(result.compared, 0u);
  EXPECT_EQ(result.soft_regressions, 0u);
  EXPECT_EQ(result.hard_regressions, 0u);
  EXPECT_EQ(result.exit_code(), 0);
}

TEST(BenchDiff, DeterministicRegressionIsHardInBothDirections) {
  const JsonValue base = parse_json(kRecord);
  // A 20% jump in a deterministic counter: far past 2x the 0.1% band.
  const JsonValue worse =
      parse_json(patched("\"pipeline.balance_moves\": 17",
                         "\"pipeline.balance_moves\": 21"));
  EXPECT_EQ(diff_run_records(base, worse).exit_code(), 2);
  // A decrease is just as much a behaviour change.
  const JsonValue fewer =
      parse_json(patched("\"pipeline.balance_moves\": 17",
                         "\"pipeline.balance_moves\": 13"));
  EXPECT_EQ(diff_run_records(base, fewer).exit_code(), 2);
}

TEST(BenchDiff, TimingNoiseMarginScalesWithRepetitions) {
  const JsonValue base = parse_json(kRecord);
  // +20% on a timing metric sits inside the default 30%-plus-margin band.
  const JsonValue noisy =
      parse_json(patched("\"wall_ms\": 120.5", "\"wall_ms\": 144.6"));
  EXPECT_EQ(diff_run_records(base, noisy).exit_code(), 0);
  // +60% breaches the soft threshold (effective ~47% at 3 reps) but not
  // the hard one (~95%).
  const JsonValue slow =
      parse_json(patched("\"wall_ms\": 120.5", "\"wall_ms\": 192.8"));
  const DiffResult soft = diff_run_records(base, slow);
  EXPECT_EQ(soft.soft_regressions, 1u);
  EXPECT_EQ(soft.exit_code(), 1);
  // +150% is a hard regression.
  const JsonValue awful =
      parse_json(patched("\"wall_ms\": 120.5", "\"wall_ms\": 301.25"));
  EXPECT_EQ(diff_run_records(base, awful).exit_code(), 2);
  // A big decrease is an improvement, never a failure.
  const JsonValue fast =
      parse_json(patched("\"wall_ms\": 120.5", "\"wall_ms\": 40.0"));
  const DiffResult better = diff_run_records(base, fast);
  EXPECT_EQ(better.improvements, 1u);
  EXPECT_EQ(better.exit_code(), 0);
}

TEST(BenchDiff, SpeedupIsHigherIsBetter) {
  // The scaling table's timing column renamed to a speedup column.
  const auto record = [](const std::string& cell) {
    std::string text = patched("\"map_ms\"", "\"map_speedup\"");
    text.replace(text.find("\"16.00\""), 7, "\"" + cell + "\"");
    return parse_json(text);
  };
  const std::string name = "tables.scaling[1024/2].map_speedup";
  const auto verdict_of = [&](const DiffResult& result) {
    for (const auto& d : result.deltas) {
      if (d.name == name) return d.verdict;
    }
    ADD_FAILURE() << name << " not compared";
    return Verdict::kSkipped;
  };
  const JsonValue base = record("16.00");
  // A speedup that grows is an improvement, never a regression.
  const DiffResult faster = diff_run_records(base, record("64.00"));
  EXPECT_EQ(verdict_of(faster), Verdict::kImproved);
  EXPECT_EQ(faster.exit_code(), 0);
  // One that shrinks regresses.
  const DiffResult slower = diff_run_records(base, record("1.00"));
  const Verdict v = verdict_of(slower);
  EXPECT_TRUE(v == Verdict::kSoftRegression || v == Verdict::kHardRegression);
  EXPECT_GT(slower.exit_code(), 0);
}

TEST(BenchDiff, MissingAndNewMetricsDoNotFail) {
  const JsonValue base = parse_json(kRecord);
  const JsonValue pruned =
      parse_json(patched("\"counters\": {\"pipeline.balance_moves\": 17}",
                         "\"counters\": {}"));
  const DiffResult result = diff_run_records(base, pruned);
  EXPECT_EQ(result.missing, 1u);
  EXPECT_EQ(result.exit_code(), 0);
  // Reversed: the extra metric shows up as new, also not a failure.
  const DiffResult reversed = diff_run_records(pruned, base);
  EXPECT_EQ(reversed.missing, 0u);
  EXPECT_EQ(reversed.exit_code(), 0);
}

TEST(BenchDiff, ZeroBaselineHandling) {
  const JsonValue base = parse_json(
      patched("\"pipeline.balance_moves\": 17",
              "\"pipeline.balance_moves\": 0"));
  // Zero -> zero: clean.
  EXPECT_EQ(diff_run_records(base, base).exit_code(), 0);
  // Zero -> nonzero on a deterministic metric: behaviour change, hard.
  const JsonValue nonzero = parse_json(kRecord);
  EXPECT_EQ(diff_run_records(base, nonzero).exit_code(), 2);
  // Zero baseline on a timing metric is unnormalizable: skipped.
  const JsonValue zero_time =
      parse_json(patched("\"wall_ms\": 120.5", "\"wall_ms\": 0"));
  const DiffResult result = diff_run_records(zero_time, parse_json(kRecord));
  EXPECT_EQ(result.exit_code(), 0);
}

TEST(BenchDiff, NonFiniteValuesAreSkippedNotFatal) {
  // json_number renders NaN as null; it must flatten to a skip.
  const JsonValue base = parse_json(patched("\"p50\": 350.0", "\"p50\": null"));
  const DiffResult result = diff_run_records(base, parse_json(kRecord));
  EXPECT_EQ(result.exit_code(), 0);
  for (const auto& d : result.deltas) {
    if (d.name == "histograms.engine.access_latency_ns.p50") {
      EXPECT_EQ(d.verdict, Verdict::kSkipped);
    }
  }
}

TEST(BenchDiff, GuardedMetricHasNoSoftBand) {
  EXPECT_TRUE(is_guarded_metric("tables.similarity[8192].reduction_ratio"));
  EXPECT_TRUE(is_guarded_metric("gauges.graph.REDUCTION_RATIO"));
  EXPECT_FALSE(is_guarded_metric("tables.scaling[1024/1].map_ms"));
  EXPECT_FALSE(is_guarded_metric("counters.pipeline.balance_moves"));

  // A breach between threshold and hard_factor x threshold is soft for a
  // plain deterministic metric, hard for a guarded one.
  const std::string base_text =
      patched("\"g.load\": 0.5",
              "\"g.load\": 10000, \"graph.reduction_ratio\": 10000");
  const std::string bumped_text =
      patched("\"g.load\": 0.5",
              "\"g.load\": 10015, \"graph.reduction_ratio\": 10015");
  const JsonValue base = parse_json(base_text);
  const JsonValue bumped = parse_json(bumped_text);
  const DiffResult result = diff_run_records(base, bumped);
  EXPECT_EQ(result.exit_code(), 2);
  for (const auto& d : result.deltas) {
    if (d.name == "gauges.graph.reduction_ratio") {
      EXPECT_EQ(d.verdict, Verdict::kHardRegression);
    } else if (d.name == "gauges.g.load") {
      EXPECT_EQ(d.verdict, Verdict::kSoftRegression);
    }
  }
}

TEST(BenchDiff, HeadroomAndMovementMetricsAreGuarded) {
  // The headroom observatory's columns are deterministic by
  // construction (simulated byte counts vs. an analytic bound), so any
  // drift is a hard regression — no soft band, same as reduction_ratio.
  EXPECT_TRUE(is_guarded_metric("tables.headroom[sar].l2_headroom_pct"));
  EXPECT_TRUE(is_guarded_metric("tables.headroom[hf].l1_bytes_moved"));
  EXPECT_TRUE(is_guarded_metric("tables.headroom[hf].l3_io_lower_bound"));
  EXPECT_TRUE(
      is_guarded_metric("tables.data movement[l2].io_lower_bound"));
  EXPECT_FALSE(is_guarded_metric("tables.data movement[l2].wall_ms"));
  EXPECT_FALSE(is_guarded_metric("counters.engine.bytes_prefetch"));

  const std::string base_text =
      patched("\"g.load\": 0.5",
              "\"g.load\": 0.5, \"engine.l2_headroom_pct\": 91.0");
  const std::string drifted_text =
      patched("\"g.load\": 0.5",
              "\"g.load\": 0.5, \"engine.l2_headroom_pct\": 90.8");
  const DiffResult result =
      diff_run_records(parse_json(base_text), parse_json(drifted_text));
  EXPECT_EQ(result.exit_code(), 2);
  for (const auto& d : result.deltas) {
    if (d.name == "gauges.engine.l2_headroom_pct") {
      EXPECT_EQ(d.verdict, Verdict::kHardRegression);
    }
  }
}

TEST(BenchDiff, RecordBuildIdFromMetadata) {
  const std::string text = patched(
      "\"build_type\": \"Release\"",
      "\"build_type\": \"Release\", \"git_sha\": \"abc123def456\", "
      "\"simd_level\": \"avx2\"");
  const JsonValue record = parse_json(text);
  EXPECT_EQ(record_metadata_string(record, "git_sha"), "abc123def456");
  EXPECT_EQ(record_metadata_string(record, "simd_level"), "avx2");
  EXPECT_EQ(record_metadata_string(record, "no_such_key"), "");
  EXPECT_EQ(record_build_id(record), "git abc123def456, Release");

  // Records that predate the stamps degrade to "?" placeholders.
  const JsonValue legacy = parse_json(kRecord);
  EXPECT_EQ(record_build_id(legacy), "git ?, Release");
}

TEST(BenchDiff, ParseMinAssertion) {
  MinAssertion a;
  ASSERT_TRUE(parse_min_assertion("tables.scaling[1024/2].map_speedup:1.3", &a));
  EXPECT_EQ(a.metric, "tables.scaling[1024/2].map_speedup");
  EXPECT_DOUBLE_EQ(a.min, 1.3);
  // The metric name may itself contain colons; the value is everything
  // after the *last* one.
  ASSERT_TRUE(parse_min_assertion("a:b:2.5", &a));
  EXPECT_EQ(a.metric, "a:b");
  EXPECT_DOUBLE_EQ(a.min, 2.5);
  EXPECT_FALSE(parse_min_assertion("no-colon", &a));
  EXPECT_FALSE(parse_min_assertion("m:", &a));
  EXPECT_FALSE(parse_min_assertion("m:not-a-number", &a));
  EXPECT_FALSE(parse_min_assertion(":1.0", &a));
  EXPECT_FALSE(parse_min_assertion("m:1.0trailing", &a));
}

TEST(BenchDiff, CheckMinAssertions) {
  const JsonValue record = parse_json(kRecord);
  std::vector<MinAssertion> assertions{
      {"counters.pipeline.balance_moves", 10.0},  // 17 >= 10: met
      {"gauges.g.load", 0.5},                     // boundary counts as met
  };
  EXPECT_TRUE(check_min_assertions(record, assertions).empty());

  assertions.push_back({"counters.pipeline.balance_moves", 100.0});
  assertions.push_back({"no.such.metric", 1.0});
  const auto failures = check_min_assertions(record, assertions);
  ASSERT_EQ(failures.size(), 2u);
  EXPECT_NE(failures[0].find("balance_moves"), std::string::npos);
  EXPECT_NE(failures[1].find("no.such.metric"), std::string::npos);
}

TEST(BenchDiff, ParseMaxAssertion) {
  MaxAssertion a;
  ASSERT_TRUE(
      parse_max_assertion("insight.l2.interference_miss_pct:12.5", &a));
  EXPECT_EQ(a.metric, "insight.l2.interference_miss_pct");
  EXPECT_DOUBLE_EQ(a.max, 12.5);
  EXPECT_FALSE(parse_max_assertion("no-colon", &a));
  EXPECT_FALSE(parse_max_assertion("m:", &a));
  EXPECT_FALSE(parse_max_assertion("m:nan", &a));
  EXPECT_FALSE(parse_max_assertion(":1.0", &a));
}

TEST(BenchDiff, CheckMaxAssertions) {
  const JsonValue record = parse_json(kRecord);
  std::vector<MaxAssertion> assertions{
      {"counters.pipeline.balance_moves", 20.0},  // 17 <= 20: met
      {"gauges.g.load", 0.5},                     // boundary counts as met
  };
  EXPECT_TRUE(check_max_assertions(record, assertions).empty());

  assertions.push_back({"counters.pipeline.balance_moves", 10.0});
  assertions.push_back({"no.such.metric", 1.0});
  const auto failures = check_max_assertions(record, assertions);
  ASSERT_EQ(failures.size(), 2u);
  EXPECT_NE(failures[0].find("balance_moves"), std::string::npos);
  EXPECT_NE(failures[0].find("> allowed"), std::string::npos);
  EXPECT_NE(failures[1].find("no.such.metric"), std::string::npos);
}

TEST(BenchDiff, FlattensInsightSectionAsGuardedMetrics) {
  const std::string text = patched(
      "\"metrics\": {",
      R"("insight": {
        "num_clients": 2,
        "levels": [
          {"level": "l2", "capacity_chunks": 32, "accesses": 100,
           "hits": 60, "misses": 40, "compulsory": 30, "capacity": 6,
           "interference": 4, "interference_miss_pct": 10.0,
           "curve": [[1, 90], [32, 40]],
           "eviction_matrix": [[0, 1], [2, 0]]}
        ]
      },
      "metrics": {)");
  const auto metrics = flatten_run_record(parse_json(text));
  auto value_of = [&](const std::string& name) -> double {
    for (const auto& m : metrics) {
      if (m.name == name) return m.value;
    }
    return -1.0;
  };
  EXPECT_DOUBLE_EQ(value_of("insight.l2.misses"), 40.0);
  EXPECT_DOUBLE_EQ(value_of("insight.l2.compulsory"), 30.0);
  EXPECT_DOUBLE_EQ(value_of("insight.l2.capacity"), 6.0);
  EXPECT_DOUBLE_EQ(value_of("insight.l2.interference"), 4.0);
  EXPECT_DOUBLE_EQ(value_of("insight.l2.interference_miss_pct"), 10.0);
  // Any deterministic drift in an insight metric is a hard regression.
  EXPECT_TRUE(is_guarded_metric("insight.l2.interference_miss_pct"));
  const JsonValue base = parse_json(text);
  const JsonValue current = parse_json(
      [&] {
        std::string t = text;
        t.replace(t.find("\"interference\": 4"),
                  std::string("\"interference\": 4").size(),
                  "\"interference\": 5");
        return t;
      }());
  EXPECT_EQ(diff_run_records(base, current).exit_code(), 2);
}

TEST(BenchDiff, DiffTableListsRegressions) {
  const JsonValue base = parse_json(kRecord);
  const JsonValue worse =
      parse_json(patched("\"pipeline.balance_moves\": 17",
                         "\"pipeline.balance_moves\": 21"));
  const DiffResult result = diff_run_records(base, worse);
  const Table table = diff_table(result, /*color=*/false, /*all=*/false);
  std::ostringstream out;
  table.print(out);
  EXPECT_NE(out.str().find("counters.pipeline.balance_moves"),
            std::string::npos);
  EXPECT_NE(out.str().find("HARD REGRESSION"), std::string::npos);
}

}  // namespace
}  // namespace mlsc::obs
