// Noise-aware comparison of two run records (DESIGN.md §13) — the
// engine behind `tools/mlsc_bench_diff`.
//
// Both documents are flattened to named numeric metrics (table cells,
// phase wall-clocks, registry counters/gauges/histogram quantiles) and
// compared metric-by-metric under per-class relative thresholds:
//
//   - *Deterministic* metrics (miss rates, counts, simulated results)
//     must match within a tight tolerance in either direction — the
//     simulator is deterministic, so any drift means behaviour changed
//     and the baseline must be regenerated deliberately.
//   - *Timing* metrics (names carrying _ms/_ns/time/latency/...) are
//     real wall-clock measurements: only a worsening counts (an
//     increase, or a decrease for a *speedup* column), the threshold
//     is loose, and it widens by a repetition-aware noise margin of
//     (1 + 1/sqrt(repetitions)) — single-shot runs get twice the slack
//     of a well-repeated one.
//
// Breaches of the threshold are soft regressions; breaches of
// hard_factor x threshold are hard regressions (CI soft-fails on the
// former, hard-fails on the latter).
#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "support/json.h"
#include "support/table.h"

namespace mlsc::obs {

enum class MetricNoise { kDeterministic, kTiming };

/// One comparable number extracted from a run record.
struct FlatMetric {
  std::string name;
  double value = 0.0;
  MetricNoise noise = MetricNoise::kDeterministic;
};

/// True when the metric name denotes a wall-clock measurement.
bool is_timing_metric(std::string_view name);

/// True when the metric is guarded: any deterministic breach is an
/// immediate hard regression, with no soft band.  Guarded metrics are
/// algorithmic guarantees (e.g. the candidate-pair reduction_ratio of
/// the similarity graph) — deterministic by construction, so any drift
/// means the pruning behaviour changed.
bool is_guarded_metric(std::string_view name);

/// Flattens a parsed run record (or legacy bench --json document) into
/// its comparable metrics:
///   tables.<title>[<row>].<column>   numeric table cells
///   phases.<name>.wall_ms            per-phase wall clock (timing)
///   counters.<name> / gauges.<name>  registry instruments
///   histograms.<name>.{p50,p90,p99,count,mean}
/// Duplicate first-column row labels are disambiguated with the second
/// column ("1024/2") and, failing that, a "#k" suffix.
std::vector<FlatMetric> flatten_run_record(const JsonValue& record);

/// Repetition count stamped in the record's metadata (1 when absent).
std::size_t record_repetitions(const JsonValue& record);

/// One-line build identity from the record's metadata: git SHA and build
/// type (each "?" when the record predates the stamp).  The diff tool
/// prints this for both sides so baselines recorded on different builds
/// are immediately visible.
std::string record_build_id(const JsonValue& record);

/// The metadata string at `key`, or "" when absent/not a string.
std::string record_metadata_string(const JsonValue& record,
                                   const std::string& key);

struct DiffOptions {
  double det_threshold = 1e-3;   // relative, deterministic metrics
  double time_threshold = 0.30;  // relative, timing metrics, pre-margin
  double hard_factor = 2.0;      // hard regression at factor x threshold
};

enum class Verdict {
  kOk,              // within threshold
  kImproved,        // timing metric shrank beyond the threshold
  kSoftRegression,  // beyond threshold
  kHardRegression,  // beyond hard_factor x threshold
  kMissing,         // in baseline, absent from current
  kNew,             // in current, absent from baseline
  kSkipped,         // non-finite value or unnormalizable zero baseline
};

struct MetricDelta {
  std::string name;
  double baseline = 0.0;
  double current = 0.0;
  double rel_delta = 0.0;   // (current - baseline) / |baseline|
  double threshold = 0.0;   // effective (noise-adjusted) threshold
  MetricNoise noise = MetricNoise::kDeterministic;
  Verdict verdict = Verdict::kOk;
};

struct DiffResult {
  std::vector<MetricDelta> deltas;  // baseline order, then new metrics
  std::size_t compared = 0;
  std::size_t soft_regressions = 0;
  std::size_t hard_regressions = 0;
  std::size_t improvements = 0;
  std::size_t missing = 0;

  /// 0 clean, 1 soft regressions only, 2 any hard regression.
  int exit_code() const;
};

DiffResult diff_run_records(const JsonValue& baseline,
                            const JsonValue& current,
                            const DiffOptions& options = {});

/// A floor assertion on one metric of the *current* record (no baseline
/// involved): `metric` must be >= `min`.  CI uses these for environment-
/// dependent guarantees a committed baseline cannot express — e.g.
/// "map_speedup at 4 threads >= 1.3" evaluated on the runner's own
/// record (this container may be single-core while CI is not).
struct MinAssertion {
  std::string metric;
  double min = 0.0;
};

/// Parses "metric:value" (value = trailing float after the last ':').
bool parse_min_assertion(std::string_view spec, MinAssertion* out);

/// Evaluates assertions against a record's flattened metrics.  Returns
/// one human-readable failure line per unmet assertion; a missing or
/// non-finite metric is a failure too.
std::vector<std::string> check_min_assertions(
    const JsonValue& record, const std::vector<MinAssertion>& assertions);

/// The complement of MinAssertion: a ceiling on one metric of the
/// current record — `metric` must be <= `max`.  CI uses these to cap
/// quantities that must not creep up, e.g. the sar workload's
/// insight.l2.interference_miss_pct under the inter-processor mapping.
struct MaxAssertion {
  std::string metric;
  double max = 0.0;
};

bool parse_max_assertion(std::string_view spec, MaxAssertion* out);

std::vector<std::string> check_max_assertions(
    const JsonValue& record, const std::vector<MaxAssertion>& assertions);

/// The delta table: every interesting row (regressions, improvements,
/// missing/new), plus all compared rows when `all` is set.  With
/// `color`, verdict cells wear ANSI SGR colors (Table::print is
/// escape-aware when aligning).
Table diff_table(const DiffResult& result, bool color, bool all);

}  // namespace mlsc::obs
