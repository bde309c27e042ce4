// mlsc_bench_diff — compares a bench run record against a committed
// baseline and fails on performance regressions (DESIGN.md §13).
//
// Usage:
//   mlsc_bench_diff <baseline.json> <current.json>
//       [--det-threshold=F] [--time-threshold=F] [--hard-factor=F]
//       [--assert-min=METRIC:VALUE]... [--assert-max=METRIC:VALUE]...
//       [--all] [--csv]
//       [--color|--no-color]
//
// Exit codes: 0 no regression, 1 soft regression(s) or unmet
// --assert-min/--assert-max, 2 hard regression(s), 3 usage or parse
// error.
#include <unistd.h>

#include <algorithm>
#include <iostream>
#include <string>
#include <vector>

#include "obs/bench_diff.h"
#include "support/argparse.h"
#include "support/check.h"
#include "support/json.h"
#include "support/table.h"

namespace {

using namespace mlsc;

void print_usage(std::ostream& out, const char* argv0) {
  out
      << "usage: " << argv0 << " <baseline.json> <current.json> [options]\n"
      << "  --det-threshold=F   relative tolerance for deterministic "
         "metrics (default 0.001)\n"
      << "  --time-threshold=F  relative tolerance for timing metrics, "
         "before the\n"
      << "                      (1 + 1/sqrt(reps)) noise margin (default "
         "0.30)\n"
      << "  --hard-factor=F     hard regression above F x threshold "
         "(default 2.0)\n"
      << "  --assert-min=M:V    require flattened metric M >= V in the "
         "*current*\n"
      << "                      record (repeatable; unmet = soft fail). "
         "For\n"
      << "                      environment-dependent floors like "
         "multicore\n"
      << "                      speedups that a committed baseline can't "
         "pin.\n"
      << "  --assert-max=M:V    require flattened metric M <= V in the "
         "*current*\n"
      << "                      record (repeatable; breach = soft fail). "
         "The\n"
      << "                      ceiling complement, e.g. capping an "
         "interference\n"
      << "                      share that must not creep back up.\n"
      << "  --all               list every compared metric, not just "
         "deviations\n"
      << "  --csv               CSV output (implies no color)\n"
      << "  --color/--no-color  force ANSI colors on/off (default: on "
         "when stdout is a tty)\n"
      << "exit: 0 clean, 1 soft regression, 2 hard regression, 3 error\n";
}

}  // namespace

int main(int argc, char** argv) {
  std::string baseline_path;
  std::string current_path;
  obs::DiffOptions options;
  std::vector<obs::MinAssertion> min_assertions;
  std::vector<obs::MaxAssertion> max_assertions;
  bool all = false;
  bool csv = false;
  bool color = isatty(STDOUT_FILENO) != 0;

  JsonValue baseline;
  JsonValue current;
  try {
    ArgParser args(argc, argv);
    while (args.next()) {
      if (args.value_flag("--det-threshold")) {
        options.det_threshold = args.value_double();
      } else if (args.value_flag("--time-threshold")) {
        options.time_threshold = args.value_double();
      } else if (args.value_flag("--hard-factor")) {
        options.hard_factor = args.value_double();
      } else if (args.value_flag("--assert-min")) {
        obs::MinAssertion assertion;
        if (!obs::parse_min_assertion(args.value(), &assertion)) {
          throw UsageError("--assert-min: expected METRIC:VALUE, got '" +
                           args.value() + "'");
        }
        min_assertions.push_back(std::move(assertion));
      } else if (args.value_flag("--assert-max")) {
        obs::MaxAssertion assertion;
        if (!obs::parse_max_assertion(args.value(), &assertion)) {
          throw UsageError("--assert-max: expected METRIC:VALUE, got '" +
                           args.value() + "'");
        }
        max_assertions.push_back(std::move(assertion));
      } else if (args.flag("--all")) {
        all = true;
      } else if (args.flag("--csv")) {
        csv = true;
      } else if (args.flag("--color")) {
        color = true;
      } else if (args.flag("--no-color")) {
        color = false;
      } else if (args.arg().rfind("--", 0) == 0) {
        args.unknown();
      } else if (baseline_path.empty()) {
        baseline_path = args.arg();
      } else if (current_path.empty()) {
        current_path = args.arg();
      } else {
        throw UsageError("unexpected extra argument '" + args.arg() + "'");
      }
    }
    if (baseline_path.empty() || current_path.empty()) {
      throw UsageError("two run record paths are required");
    }
    // The inputs are user-supplied JSON; unreadable or malformed files
    // are usage errors (exit 3), never crashes.
    baseline = parse_json_file(baseline_path);
    current = parse_json_file(current_path);
  } catch (const Error& e) {
    std::cerr << "error: " << e.what() << "\n\n";
    print_usage(std::cerr, argv[0]);
    return kUsageExitCode;
  }
  if (csv) color = false;

  try {
    const obs::DiffResult result =
        obs::diff_run_records(baseline, current, options);

    if (!csv) {
      std::cout << "baseline: " << obs::record_build_id(baseline) << "\n"
                << "current:  " << obs::record_build_id(current) << "\n\n";
    }

    const Table table = obs::diff_table(result, color, all);
    if (csv) {
      table.print_csv(std::cout);
    } else {
      if (table.num_rows() == 0) {
        std::cout << "no deviations";
      } else {
        table.print(std::cout);
      }
      std::cout << "\ncompared " << result.compared << " metrics: "
                << result.hard_regressions << " hard, "
                << result.soft_regressions << " soft regression(s), "
                << result.improvements << " improvement(s), "
                << result.missing << " missing\n";
    }

    std::vector<std::string> unmet =
        obs::check_min_assertions(current, min_assertions);
    const std::vector<std::string> over =
        obs::check_max_assertions(current, max_assertions);
    unmet.insert(unmet.end(), over.begin(), over.end());
    for (const std::string& failure : unmet) {
      std::cerr << failure << "\n";
    }
    return std::max(result.exit_code(), unmet.empty() ? 0 : 1);
  } catch (const Error& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 3;
  }
}
