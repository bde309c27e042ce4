#include "obs/bench_diff.h"

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <limits>
#include <map>
#include <set>

#include "support/string_util.h"

namespace mlsc::obs {

namespace {

std::string lowercase(std::string_view s) {
  std::string out(s);
  for (char& c : out) {
    if (c >= 'A' && c <= 'Z') c = static_cast<char>(c - 'A' + 'a');
  }
  return out;
}

/// Parses a table cell as a number; the whole cell must be numeric.
bool parse_cell(const std::string& cell, double* out) {
  if (cell.empty()) return false;
  char* end = nullptr;
  const double value = std::strtod(cell.c_str(), &end);
  if (end != cell.c_str() + cell.size()) return false;
  *out = value;
  return true;
}

MetricNoise classify(const std::string& name) {
  return is_timing_metric(name) ? MetricNoise::kTiming
                                : MetricNoise::kDeterministic;
}

void flatten_tables(const JsonValue& record, std::vector<FlatMetric>* out) {
  const JsonValue* tables = record.find("tables");
  if (tables == nullptr || !tables->is_array()) return;
  std::size_t table_index = 0;
  for (const JsonValue& table : tables->as_array()) {
    ++table_index;
    const JsonValue* header = table.find("header");
    const JsonValue* rows = table.find("rows");
    if (header == nullptr || rows == nullptr || !header->is_array() ||
        !rows->is_array()) {
      continue;
    }
    std::string title =
        table.find("title") != nullptr ? table.find("title")->string_or("")
                                       : "";
    if (title.empty()) title = "table" + std::to_string(table_index);

    // Row labels: first cell, disambiguated with the second cell when
    // first cells repeat, then with a "#k" suffix.
    const auto& row_array = rows->as_array();
    std::vector<std::string> labels;
    labels.reserve(row_array.size());
    std::map<std::string, std::size_t> first_cell_uses;
    for (const JsonValue& row : row_array) {
      const auto& cells = row.as_array();
      labels.push_back(cells.empty() ? "" : cells[0].string_or(""));
      ++first_cell_uses[labels.back()];
    }
    std::map<std::string, std::size_t> seen;
    for (std::size_t r = 0; r < labels.size(); ++r) {
      const auto& cells = row_array[r].as_array();
      if (first_cell_uses[labels[r]] > 1 && cells.size() >= 2) {
        labels[r] += "/" + cells[1].string_or("");
      }
      const std::size_t k = seen[labels[r]]++;
      if (k > 0) labels[r] += "#" + std::to_string(k);
    }

    const auto& header_cells = header->as_array();
    for (std::size_t r = 0; r < row_array.size(); ++r) {
      const auto& cells = row_array[r].as_array();
      for (std::size_t c = 1; c < cells.size() && c < header_cells.size();
           ++c) {
        double value = 0.0;
        if (!cells[c].is_string() ||
            !parse_cell(cells[c].as_string(), &value)) {
          continue;
        }
        const std::string column = header_cells[c].string_or(
            "col" + std::to_string(c));
        FlatMetric m;
        m.name = "tables." + title + "[" + labels[r] + "]." + column;
        m.value = value;
        m.noise = classify(m.name);
        out->push_back(std::move(m));
      }
    }
  }
}

void flatten_phases(const JsonValue& record, std::vector<FlatMetric>* out) {
  const JsonValue* phases = record.find("phases");
  if (phases == nullptr || !phases->is_array()) return;
  std::map<std::string, std::size_t> seen;
  for (const JsonValue& phase : phases->as_array()) {
    const JsonValue* name = phase.find("name");
    const JsonValue* wall = phase.find("wall_ms");
    if (name == nullptr || wall == nullptr) continue;
    std::string label = name->string_or("");
    const std::size_t k = seen[label]++;
    if (k > 0) label += "#" + std::to_string(k);
    FlatMetric m;
    m.name = "phases." + label + ".wall_ms";
    m.value = wall->number_or(std::numeric_limits<double>::quiet_NaN());
    m.noise = MetricNoise::kTiming;
    out->push_back(std::move(m));
  }
}

void flatten_metrics_section(const JsonValue& record,
                             std::vector<FlatMetric>* out) {
  const JsonValue* metrics = record.find("metrics");
  if (metrics == nullptr || !metrics->is_object()) return;
  const double nan = std::numeric_limits<double>::quiet_NaN();

  for (const char* family : {"counters", "gauges"}) {
    const JsonValue* section = metrics->find(family);
    if (section == nullptr || !section->is_object()) continue;
    for (const auto& [name, value] : section->as_object()) {
      FlatMetric m;
      m.name = std::string(family) + "." + name;
      m.value = value.number_or(nan);
      m.noise = classify(m.name);
      out->push_back(std::move(m));
    }
  }

  const JsonValue* histograms = metrics->find("histograms");
  if (histograms == nullptr || !histograms->is_object()) return;
  for (const auto& [name, hist] : histograms->as_object()) {
    const double count =
        hist.find("count") != nullptr ? hist.find("count")->number_or(nan)
                                      : nan;
    const double sum =
        hist.find("sum") != nullptr ? hist.find("sum")->number_or(nan) : nan;
    const MetricNoise noise = classify(name);
    out->push_back({"histograms." + name + ".count", count,
                    MetricNoise::kDeterministic});
    if (std::isfinite(count) && count > 0.0) {
      out->push_back({"histograms." + name + ".mean", sum / count, noise});
    }
    const JsonValue* quantiles = hist.find("quantiles");
    if (quantiles == nullptr || !quantiles->is_object()) continue;
    for (const auto& [q, value] : quantiles->as_object()) {
      out->push_back(
          {"histograms." + name + "." + q, value.number_or(nan), noise});
    }
  }
}

/// The run record's "insight" section (cache-behavior explanation,
/// DESIGN.md §18): per-level miss classes as insight.<level>.<field>.
/// Everything here is simulated and deterministic; the "insight" name
/// routes the metrics into the guarded set.  The capacity curves and
/// eviction matrices are rendered by mlsc_report, not diffed cell by
/// cell — the scalar class counts already pin the behaviour.
void flatten_insight_section(const JsonValue& record,
                             std::vector<FlatMetric>* out) {
  const JsonValue* insight = record.find("insight");
  if (insight == nullptr || !insight->is_object()) return;
  const JsonValue* levels = insight->find("levels");
  if (levels == nullptr || !levels->is_array()) return;
  const double nan = std::numeric_limits<double>::quiet_NaN();
  for (const JsonValue& level : levels->as_array()) {
    const JsonValue* name = level.find("level");
    if (name == nullptr || !name->is_string()) continue;
    for (const char* field :
         {"accesses", "hits", "misses", "compulsory", "capacity",
          "interference", "interference_miss_pct"}) {
      const JsonValue* value = level.find(field);
      if (value == nullptr || !value->is_number()) continue;
      out->push_back({"insight." + name->as_string() + "." + field,
                      value->number_or(nan), MetricNoise::kDeterministic});
    }
  }
}

double effective_threshold(MetricNoise noise, const DiffOptions& options,
                           std::size_t repetitions) {
  if (noise == MetricNoise::kDeterministic) return options.det_threshold;
  const double reps = static_cast<double>(std::max<std::size_t>(
      repetitions, 1));
  return options.time_threshold * (1.0 + 1.0 / std::sqrt(reps));
}

const char* verdict_label(Verdict v) {
  switch (v) {
    case Verdict::kOk:
      return "ok";
    case Verdict::kImproved:
      return "improved";
    case Verdict::kSoftRegression:
      return "REGRESSION";
    case Verdict::kHardRegression:
      return "HARD REGRESSION";
    case Verdict::kMissing:
      return "missing";
    case Verdict::kNew:
      return "new";
    case Verdict::kSkipped:
      return "skipped";
  }
  return "?";
}

const char* verdict_color(Verdict v) {
  switch (v) {
    case Verdict::kOk:
      return "";
    case Verdict::kImproved:
      return "\x1b[32m";  // green
    case Verdict::kSoftRegression:
      return "\x1b[33m";  // yellow
    case Verdict::kHardRegression:
      return "\x1b[31m";  // red
    case Verdict::kMissing:
      return "\x1b[35m";  // magenta
    case Verdict::kNew:
      return "\x1b[36m";  // cyan
    case Verdict::kSkipped:
      return "\x1b[2m";  // dim
  }
  return "";
}

}  // namespace

bool is_timing_metric(std::string_view name) {
  const std::string lower = lowercase(name);
  for (const char* needle :
       {"_ms", "_ns", "wall", "time", "latency", "speedup", "busy",
        "idle"}) {
    if (lower.find(needle) != std::string::npos) return true;
  }
  return false;
}

bool is_guarded_metric(std::string_view name) {
  const std::string lower = lowercase(name);
  // reduction_ratio: the similarity graph's pruning guarantee.
  // headroom / io_lower_bound / bytes_moved: the data-movement
  // observatory — the engine replay and the bound are both
  // deterministic, so any drift is a real behaviour change.
  // work_ratio / _pairs: the serve delta-vs-full mapping-work counts
  // (bench_churn) — counted, not timed, so exact.
  // _decisions: the serve policy's decision mix over a fixed script.
  // insight: the cache-behavior explanation (miss classes, interference
  // attribution) — derived from the deterministic replay, so any drift
  // means the classification or the replay itself changed.
  return lower.find("reduction_ratio") != std::string::npos ||
         lower.find("headroom") != std::string::npos ||
         lower.find("io_lower_bound") != std::string::npos ||
         lower.find("bytes_moved") != std::string::npos ||
         lower.find("work_ratio") != std::string::npos ||
         lower.find("_pairs") != std::string::npos ||
         lower.find("_decisions") != std::string::npos ||
         lower.find("insight") != std::string::npos;
}

std::vector<FlatMetric> flatten_run_record(const JsonValue& record) {
  std::vector<FlatMetric> out;
  flatten_tables(record, &out);
  flatten_phases(record, &out);
  flatten_insight_section(record, &out);
  flatten_metrics_section(record, &out);
  return out;
}

std::size_t record_repetitions(const JsonValue& record) {
  const JsonValue* metadata = record.find("metadata");
  if (metadata == nullptr) return 1;
  const JsonValue* reps = metadata->find("repetitions");
  if (reps == nullptr || !reps->is_number()) return 1;
  const double value = reps->as_number();
  return value >= 1.0 ? static_cast<std::size_t>(value) : 1;
}

std::string record_metadata_string(const JsonValue& record,
                                   const std::string& key) {
  const JsonValue* metadata = record.find("metadata");
  if (metadata == nullptr) return "";
  const JsonValue* value = metadata->find(key);
  if (value == nullptr || !value->is_string()) return "";
  return value->as_string();
}

std::string record_build_id(const JsonValue& record) {
  auto field = [&](const char* key) {
    const std::string value = record_metadata_string(record, key);
    return value.empty() ? std::string("?") : value;
  };
  return "git " + field("git_sha") + ", " + field("build_type");
}

int DiffResult::exit_code() const {
  if (hard_regressions > 0) return 2;
  if (soft_regressions > 0) return 1;
  return 0;
}

DiffResult diff_run_records(const JsonValue& baseline,
                            const JsonValue& current,
                            const DiffOptions& options) {
  const std::vector<FlatMetric> base = flatten_run_record(baseline);
  const std::vector<FlatMetric> cur = flatten_run_record(current);
  const std::size_t repetitions =
      std::min(record_repetitions(baseline), record_repetitions(current));

  std::map<std::string, const FlatMetric*> cur_by_name;
  for (const FlatMetric& m : cur) cur_by_name.emplace(m.name, &m);
  std::set<std::string> base_names;
  for (const FlatMetric& m : base) base_names.insert(m.name);

  DiffResult result;
  for (const FlatMetric& b : base) {
    MetricDelta d;
    d.name = b.name;
    d.baseline = b.value;
    d.noise = b.noise;
    d.threshold = effective_threshold(b.noise, options, repetitions);

    const auto it = cur_by_name.find(b.name);
    if (it == cur_by_name.end()) {
      d.current = std::numeric_limits<double>::quiet_NaN();
      d.verdict = Verdict::kMissing;
      ++result.missing;
      result.deltas.push_back(std::move(d));
      continue;
    }
    d.current = it->second->value;

    if (!std::isfinite(d.baseline) || !std::isfinite(d.current)) {
      d.verdict = Verdict::kSkipped;
      result.deltas.push_back(std::move(d));
      continue;
    }
    ++result.compared;

    if (d.baseline == 0.0) {
      if (d.current == 0.0) {
        d.verdict = Verdict::kOk;
      } else if (b.noise == MetricNoise::kDeterministic) {
        // Any change to a deterministic zero is a behavioural change.
        d.rel_delta = std::numeric_limits<double>::infinity();
        d.verdict = Verdict::kHardRegression;
        ++result.hard_regressions;
      } else {
        d.verdict = Verdict::kSkipped;  // timing ratio undefined
        --result.compared;
      }
      result.deltas.push_back(std::move(d));
      continue;
    }

    d.rel_delta = (d.current - d.baseline) / std::fabs(d.baseline);
    // Timing metrics regress in one direction only: up for times, down
    // for speedups.
    const bool speedup = lowercase(b.name).find("speedup") != std::string::npos;
    const double worsening = speedup ? -d.rel_delta : d.rel_delta;
    const double magnitude = b.noise == MetricNoise::kTiming
                                 ? worsening
                                 : std::fabs(d.rel_delta);
    // Guarded deterministic metrics (reduction_ratio) have no soft
    // band: the pruning guarantees are exact, so any breach is hard.
    const bool guarded = b.noise == MetricNoise::kDeterministic &&
                         is_guarded_metric(b.name);
    if (magnitude > options.hard_factor * d.threshold ||
        (guarded && magnitude > d.threshold)) {
      d.verdict = Verdict::kHardRegression;
      ++result.hard_regressions;
    } else if (magnitude > d.threshold) {
      d.verdict = Verdict::kSoftRegression;
      ++result.soft_regressions;
    } else if (b.noise == MetricNoise::kTiming &&
               worsening < -d.threshold) {
      d.verdict = Verdict::kImproved;
      ++result.improvements;
    } else {
      d.verdict = Verdict::kOk;
    }
    result.deltas.push_back(std::move(d));
  }

  for (const FlatMetric& c : cur) {
    if (base_names.count(c.name) != 0) continue;
    MetricDelta d;
    d.name = c.name;
    d.baseline = std::numeric_limits<double>::quiet_NaN();
    d.current = c.value;
    d.noise = c.noise;
    d.verdict = Verdict::kNew;
    result.deltas.push_back(std::move(d));
  }
  return result;
}

namespace {

/// Shared "metric:value" parser for the min/max assertion specs.
bool parse_metric_bound(std::string_view spec, std::string* metric,
                        double* bound) {
  const std::size_t colon = spec.rfind(':');
  if (colon == std::string_view::npos || colon == 0 ||
      colon + 1 >= spec.size()) {
    return false;
  }
  const std::string value(spec.substr(colon + 1));
  char* end = nullptr;
  const double parsed = std::strtod(value.c_str(), &end);
  if (end != value.c_str() + value.size() || !std::isfinite(parsed)) {
    return false;
  }
  *metric = std::string(spec.substr(0, colon));
  *bound = parsed;
  return true;
}

/// Looks `metric` up in the record's flattened metrics; appends a
/// failure line and returns false when absent or non-finite.
bool lookup_metric(const std::map<std::string, double>& by_name,
                   const std::string& metric, const char* what,
                   std::vector<std::string>* failures, double* value) {
  const auto it = by_name.find(metric);
  if (it == by_name.end()) {
    failures->push_back(std::string(what) + ": metric '" + metric +
                        "' not found in record");
    return false;
  }
  if (!std::isfinite(it->second)) {
    failures->push_back(std::string(what) + ": metric '" + metric +
                        "' is not finite");
    return false;
  }
  *value = it->second;
  return true;
}

std::map<std::string, double> metrics_by_name(const JsonValue& record) {
  std::map<std::string, double> by_name;
  for (const FlatMetric& m : flatten_run_record(record)) {
    by_name.emplace(m.name, m.value);
  }
  return by_name;
}

}  // namespace

bool parse_min_assertion(std::string_view spec, MinAssertion* out) {
  return parse_metric_bound(spec, &out->metric, &out->min);
}

bool parse_max_assertion(std::string_view spec, MaxAssertion* out) {
  return parse_metric_bound(spec, &out->metric, &out->max);
}

std::vector<std::string> check_min_assertions(
    const JsonValue& record, const std::vector<MinAssertion>& assertions) {
  const auto by_name = metrics_by_name(record);
  std::vector<std::string> failures;
  for (const MinAssertion& a : assertions) {
    double value = 0.0;
    if (!lookup_metric(by_name, a.metric, "assert-min", &failures, &value)) {
      continue;
    }
    if (value < a.min) {
      failures.push_back("assert-min: " + a.metric + " = " +
                         format_double(value, 4) + " < required " +
                         format_double(a.min, 4));
    }
  }
  return failures;
}

std::vector<std::string> check_max_assertions(
    const JsonValue& record, const std::vector<MaxAssertion>& assertions) {
  const auto by_name = metrics_by_name(record);
  std::vector<std::string> failures;
  for (const MaxAssertion& a : assertions) {
    double value = 0.0;
    if (!lookup_metric(by_name, a.metric, "assert-max", &failures, &value)) {
      continue;
    }
    if (value > a.max) {
      failures.push_back("assert-max: " + a.metric + " = " +
                         format_double(value, 4) + " > allowed " +
                         format_double(a.max, 4));
    }
  }
  return failures;
}

Table diff_table(const DiffResult& result, bool color, bool all) {
  Table table({"metric", "baseline", "current", "delta %", "threshold %",
               "class", "verdict"});
  auto number = [](double v) {
    if (!std::isfinite(v)) return std::string("-");
    return format_double(v, 4);
  };
  for (const MetricDelta& d : result.deltas) {
    const bool interesting = d.verdict != Verdict::kOk;
    if (!all && !interesting) continue;
    std::string verdict = verdict_label(d.verdict);
    if (color) {
      const char* code = verdict_color(d.verdict);
      if (*code != '\0') verdict = code + verdict + "\x1b[0m";
    }
    const bool has_delta = d.verdict != Verdict::kMissing &&
                           d.verdict != Verdict::kNew &&
                           d.verdict != Verdict::kSkipped;
    table.add_row(
        {d.name, number(d.baseline), number(d.current),
         has_delta ? format_double(100.0 * d.rel_delta, 2) : "-",
         has_delta ? format_double(100.0 * d.threshold, 2) : "-",
         d.noise == MetricNoise::kTiming ? "timing" : "det",
         std::move(verdict)});
  }
  return table;
}

}  // namespace mlsc::obs
