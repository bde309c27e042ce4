// Tests for the self-contained HTML run report renderer behind
// tools/mlsc_report: well-formedness, section presence, the per-client
// stall breakdown built from a trace, and the no-external-assets rule.
#include <gtest/gtest.h>

#include <string>

#include "obs/report_html.h"
#include "support/json.h"

namespace mlsc::obs {
namespace {

const char* kRecord = R"json({
  "schema": "mlsc-run-record-v1",
  "binary": "bench_test",
  "metadata": {"machine": "paper default <64/32/16>", "apps": ["hf", "sar"],
               "hardware_threads": 8, "build_type": "Release",
               "repetitions": 3},
  "phases": [
    {"name": "hf/inter", "wall_ms": 120.5},
    {"name": "sar/inter", "wall_ms": 80.25}
  ],
  "tables": [
    {"title": "cache levels",
     "header": ["level", "accesses", "misses", "miss %"],
     "rows": [["L1 (compute)", "1000", "50", "5.0"],
              ["L2 (I/O)", "50", "40", "80.0"]]}
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
})json";

// Two clients with complete ('X') events on client pids; pid 0 is the
// host track and must be ignored.
const char* kTrace = R"({
  "displayTimeUnit": "ns",
  "traceEvents": [
    {"ph": "X", "pid": 0, "tid": 0, "name": "compute", "ts": 0, "dur": 9},
    {"ph": "X", "pid": 1, "tid": 0, "name": "compute", "ts": 0, "dur": 100},
    {"ph": "X", "pid": 1, "tid": 0, "name": "disk", "ts": 100, "dur": 400},
    {"ph": "X", "pid": 2, "tid": 0, "name": "l1 hit", "ts": 0, "dur": 50},
    {"ph": "X", "pid": 2, "tid": 0, "name": "sync wait", "ts": 50, "dur": 25},
    {"ph": "M", "pid": 1, "name": "process_name",
     "args": {"name": "client 0"}}
  ]
})";

/// Every <tag> has a matching </tag> (void elements excluded).
void expect_balanced(const std::string& html, const std::string& tag) {
  std::size_t opens = 0;
  for (std::size_t pos = html.find("<" + tag);
       pos != std::string::npos; pos = html.find("<" + tag, pos + 1)) {
    const char next = html[pos + tag.size() + 1];
    if (next == '>' || next == ' ' || next == '\n') ++opens;
  }
  std::size_t closes = 0;
  for (std::size_t pos = html.find("</" + tag + ">");
       pos != std::string::npos;
       pos = html.find("</" + tag + ">", pos + 1)) {
    ++closes;
  }
  EXPECT_EQ(opens, closes) << "unbalanced <" << tag << ">";
}

TEST(ReportHtml, WellFormedAndSelfContained) {
  const JsonValue record = parse_json(kRecord);
  const std::string html = render_html_report(record);
  EXPECT_EQ(html.rfind("<!doctype html>", 0), 0u);
  EXPECT_NE(html.find("</html>"), std::string::npos);
  for (const char* tag : {"html", "head", "body", "section", "table",
                          "style", "div", "span", "h1", "h2"}) {
    expect_balanced(html, tag);
  }
  // Self-contained: no external fetches of any kind.
  EXPECT_EQ(html.find("http://"), std::string::npos);
  EXPECT_EQ(html.find("https://"), std::string::npos);
  EXPECT_EQ(html.find("<script src"), std::string::npos);
  EXPECT_EQ(html.find("<link"), std::string::npos);
  EXPECT_EQ(html.find("@import"), std::string::npos);
}

TEST(ReportHtml, RendersRecordSections) {
  const std::string html = render_html_report(parse_json(kRecord));
  EXPECT_NE(html.find("id=\"metadata\""), std::string::npos);
  EXPECT_NE(html.find("id=\"phases\""), std::string::npos);
  EXPECT_NE(html.find("id=\"tables\""), std::string::npos);
  EXPECT_NE(html.find("id=\"metrics\""), std::string::npos);
  // Machine metadata is escaped, not injected.
  EXPECT_NE(html.find("&lt;64/32/16&gt;"), std::string::npos);
  EXPECT_EQ(html.find("<64/32/16>"), std::string::npos);
  // Table cells and histogram quantiles make it through.
  EXPECT_NE(html.find("L1 (compute)"), std::string::npos);
  EXPECT_NE(html.find("engine.access_latency_ns"), std::string::npos);
  EXPECT_NE(html.find("hf/inter"), std::string::npos);
  // No trace given: no stall section.
  EXPECT_EQ(html.find("id=\"stall\""), std::string::npos);
}

TEST(ReportHtml, StallSectionAggregatesPerClient) {
  const JsonValue record = parse_json(kRecord);
  const JsonValue trace = parse_json(kTrace);
  const std::string html = render_html_report(record, &trace);
  EXPECT_NE(html.find("id=\"stall\""), std::string::npos);
  // One row per client pid at or above kClientPidBase.
  EXPECT_NE(html.find("client 0"), std::string::npos);
  EXPECT_NE(html.find("client 1"), std::string::npos);
  EXPECT_EQ(html.find("client 2"), std::string::npos);
  // Category legend entries present.
  for (const char* cat : {"compute", "disk", "l1 hit", "sync wait"}) {
    EXPECT_NE(html.find(cat), std::string::npos);
  }
  for (const char* tag : {"section", "div", "table"}) {
    expect_balanced(html, tag);
  }
}

TEST(ReportHtml, HeadroomPanelRendersPercentOfOptimalBars) {
  // A record carrying headroom_pct columns (bench_headroom /
  // mlsc_map --report full output) gets the dedicated "% of optimal"
  // panel with one absolute-scale bar per (row, level) pair.
  const char* record_text = R"json({
    "schema": "mlsc-run-record-v1",
    "binary": "bench_headroom",
    "tables": [
      {"title": "headroom",
       "header": ["workload", "l1_bytes_moved", "l1_io_lower_bound",
                  "l1_headroom_pct", "l2_bytes_moved", "l2_io_lower_bound",
                  "l2_headroom_pct"],
       "rows": [["sar", "4096", "2048", "50.00", "2048", "2048",
                 "100.00"]]}
    ]
  })json";
  const std::string html = render_html_report(parse_json(record_text));
  EXPECT_NE(html.find("id=\"headroom\""), std::string::npos);
  EXPECT_NE(html.find("% of optimal"), std::string::npos);
  EXPECT_NE(html.find("sar l1"), std::string::npos);
  EXPECT_NE(html.find("sar l2"), std::string::npos);
  for (const char* tag : {"section", "div", "table"}) {
    expect_balanced(html, tag);
  }

  // No headroom columns anywhere: no panel.
  const std::string plain = render_html_report(parse_json(kRecord));
  EXPECT_EQ(plain.find("id=\"headroom\""), std::string::npos);
}

TEST(ReportHtml, EmptyHistogramRendersDashNotZeroBars) {
  const char* record_text = R"json({
    "schema": "mlsc-run-record-v1",
    "binary": "bench_test",
    "metrics": {
      "counters": {}, "gauges": {},
      "histograms": {
        "engine.access_latency_ns": {
          "bounds": [100, 1000], "counts": [0, 0, 0], "count": 0,
          "sum": 0,
          "quantiles": {"p50": null, "p90": null, "p99": null}}
      }
    }
  })json";
  const std::string html = render_html_report(parse_json(record_text));
  // Quantiles of an empty histogram show as an em-dash, never "0".
  EXPECT_NE(html.find("&mdash;"), std::string::npos);
  EXPECT_EQ(html.find("p50: 0"), std::string::npos);
  EXPECT_NE(html.find("no observations"), std::string::npos);
}

TEST(ReportHtml, EmptyRecordStillRenders) {
  const JsonValue record = parse_json(R"({"schema": "mlsc-run-record-v1"})");
  const std::string html = render_html_report(record);
  EXPECT_EQ(html.rfind("<!doctype html>", 0), 0u);
  EXPECT_NE(html.find("</html>"), std::string::npos);
}

}  // namespace
}  // namespace mlsc::obs
