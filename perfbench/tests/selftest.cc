// Tests for the benchmark's own arithmetic and input generation.  Built
// next to perfbench; run.py runs it before every measurement, and
// `ctest` runs it in the benchmark's build directory.
#include <cmath>
#include <cstdlib>
#include <iostream>
#include <string>
#include <vector>

#include "arith.h"
#include "churn_stream.h"
#include "serve/event.h"

namespace {

int failures = 0;

void expect(bool ok, const std::string& what) {
  if (!ok) {
    ++failures;
    std::cerr << "FAIL: " << what << "\n";
  }
}

void test_tail_percentile() {
  using perfbench::tail_percentile;
  // p95 of 200 leaves exactly 10 samples beyond it; p96 only 8.
  expect(tail_percentile(200) == 95, "200 samples -> p95");
  expect(perfbench::samples_beyond(200, 95) == 10, "10 beyond p95 of 200");
  expect(perfbench::samples_beyond(200, 96) == 8, "8 beyond p96 of 200");
  expect(tail_percentile(316) == 96, "316 samples -> p96");
  expect(tail_percentile(1000) == 99, "1000 samples -> p99");
  expect(tail_percentile(20) == 50, "20 samples -> p50");
  // Too few samples for any percentile at or above the median: the max.
  expect(tail_percentile(19) == 100, "19 samples -> max");
  expect(tail_percentile(8) == 100, "8 samples -> max");

  std::vector<double> sorted;
  for (int i = 1; i <= 200; ++i) sorted.push_back(i);
  expect(perfbench::percentile_nearest_rank(sorted, 95) == 190.0,
         "nearest-rank p95 of 1..200 is 190");
  expect(perfbench::percentile_nearest_rank(sorted, 100) == 200.0,
         "p100 is the maximum");
  expect(perfbench::median({3, 1, 2}) == 2.0, "odd median");
  expect(perfbench::median({4, 1, 2, 3}) == 2.5, "even median");
}

void test_mean_of_ratios() {
  // bench_fig11's average row: per-app ratios summed, then divided by the
  // app count; a ratio of sums would give 4/6 here.
  const std::vector<double> inter = {1, 3};
  const std::vector<double> orig = {2, 4};
  expect(perfbench::mean_of_ratios(inter, orig) == 0.625,
         "mean of ratios, not ratio of sums");

  const std::vector<double> in = {47799266208.0, 1234567.0, 98765.0};
  const std::vector<double> base = {61234512345.0, 2345678.0, 99999.0};
  double sum = 0.0;
  for (std::size_t i = 0; i < in.size(); ++i) {
    sum += static_cast<double>(in[i]) / static_cast<double>(base[i]);
  }
  expect(perfbench::mean_of_ratios(in, base) ==
             sum / static_cast<double>(in.size()),
         "bit-identical to the Figure 11 averaging loop");
}

void test_gap_points() {
  expect(std::abs(perfbench::gap_points(0.811, 18.9)) < 1e-9,
         "paper's own ratio has no gap");
  expect(std::abs(perfbench::gap_points(0.747, 18.9) - 6.4) < 1e-9,
         "25.3% vs 18.9% is 6.4 points");
  expect(std::abs(perfbench::gap_points(0.9, 26.3) - 16.3) < 1e-9,
         "a smaller improvement is a positive distance too");
}

void test_stream() {
  const perfbench::ChurnShape shape;
  const std::string a = perfbench::churn_stream_text(7, shape);
  const std::string b = perfbench::churn_stream_text(7, shape);
  const std::string c = perfbench::churn_stream_text(8, shape);
  expect(a == b, "same seed gives a byte-identical stream");
  expect(a != c, "another seed gives another stream");

  const auto events = mlsc::serve::parse_event_stream(a);
  expect(events.size() == shape.slots + shape.events(),
         "stream parses to standing + timed events");
  expect(shape.events() >= 200, "at least 200 timed events");
  std::size_t kinds[4] = {0, 0, 0, 0};
  for (const auto& e : events) kinds[static_cast<int>(e.kind)]++;
  for (int k = 0; k < 4; ++k) {
    expect(kinds[k] > 0, std::string("stream has events of kind ") +
                             mlsc::serve::event_kind_name(
                                 static_cast<mlsc::serve::EventKind>(k)));
  }
  expect(a.find("\"spec\":\"fail@") != std::string::npos,
         "fault lines carry the spec key");
}

}  // namespace

int main() {
  test_tail_percentile();
  test_mean_of_ratios();
  test_gap_points();
  test_stream();
  if (failures > 0) {
    std::cerr << failures << " perfbench self-test failure(s)\n";
    return EXIT_FAILURE;
  }
  std::cout << "perfbench self-test passed\n";
  return EXIT_SUCCESS;
}
