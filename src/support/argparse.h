// Minimal command-line parsing shared by the mlsc_* tools.
//
// The tools keep their own explicit flag lists (each one documents its
// surface in usage()); this helper standardizes the mechanics every list
// needs: "--flag value" and "--flag=value" both work, numeric values are
// parsed strictly (trailing garbage rejected), and every misuse throws
// UsageError so main() can print the usage text and exit with the shared
// usage exit code instead of crashing or dying on an uncaught exception.
#pragma once

#include <cstdint>
#include <string>

#include "support/check.h"

namespace mlsc {

/// CLI misuse: unknown flag, missing or malformed value.  Tools catch
/// this at top level, print the message and usage, and exit
/// kUsageExitCode.
class UsageError : public Error {
 public:
  using Error::Error;
};

/// Exit status for CLI misuse (distinct from 1 = runtime failure).
inline constexpr int kUsageExitCode = 3;

/// Largest --threads value a tool accepts.  Each thread is an OS thread,
/// so a mistyped count must not start millions of them.
inline constexpr std::uint64_t kMaxThreads = 1024;

class ArgParser {
 public:
  ArgParser(int argc, char** argv) : argc_(argc), argv_(argv) {}

  /// Index of the current argument within argv (0 before the first
  /// next()).  Lets scanners that only consume a subset of the flags
  /// step over a value argument another pass will read.
  int index() const { return i_; }

  /// Advances to the next argument; false when exhausted.
  bool next() {
    if (i_ + 1 >= argc_) return false;
    arg_ = argv_[++i_];
    return true;
  }

  /// The current raw argument.
  const std::string& arg() const { return arg_; }

  /// True when the current argument is exactly `name` (boolean flag).
  bool flag(const char* name) const { return arg_ == name; }

  /// True when the current argument is `name=V` or `name` followed by a
  /// value argument; value() then returns V.  Throws UsageError when the
  /// value is missing.
  bool value_flag(const char* name);

  /// The value captured by the last matching value_flag().
  const std::string& value() const { return value_; }

  /// Typed conversions of value(); throw UsageError naming the flag on
  /// malformed input (partial parses and trailing garbage rejected).
  std::uint64_t value_u64() const;
  double value_double() const;

  /// value_u64() limited to [lo, hi]; throws UsageError naming the
  /// range otherwise.
  std::uint64_t value_u64_in(std::uint64_t lo, std::uint64_t hi) const;

  /// A --threads count: 0 (all cores) up to kMaxThreads.
  std::size_t value_threads() const { return value_u64_in(0, kMaxThreads); }

  /// Fails the current argument as unknown.
  [[noreturn]] void unknown() const {
    throw UsageError("unknown or misplaced argument '" + arg_ + "'");
  }

 private:
  int argc_;
  char** argv_;
  int i_ = 0;
  std::string arg_;
  std::string value_;
  std::string flag_name_;  // last value_flag match, for error messages
};

/// The output/observability flags every mlsc tool accepts —
/// --trace/--metrics/--json/--log-level, plus --reps for the binaries
/// that time repetitions.  One match() call per argument folds them into
/// any tool's parse loop; obs::ObsScope turns the captured paths into a
/// live trace/metrics session (tools own the run-record handling since
/// each stamps different tables).
struct CommonToolOptions {
  std::string trace_path;
  std::string metrics_path;
  std::string json_path;
  std::size_t repetitions = 1;
  /// Benches accept --reps; one-shot tools leave it unknown.
  bool accept_reps = false;
  /// --explain: attach the cache-insight profiler (DESIGN.md §18) to
  /// every simulated run.  Off by default — replay pays one null check
  /// per access when disabled.  Only matched when accept_explain is set.
  bool explain = false;
  bool accept_explain = false;

  /// Consumes the current argument when it is one of the shared flags
  /// (both "--flag value" and "--flag=value" forms); --log-level is
  /// applied immediately.  Returns false on any other argument.
  bool match(ArgParser& args);

  /// Usage text for the shared flags (one indented line each, trailing
  /// newline included).
  static std::string usage(bool with_reps = false,
                           bool with_explain = false);
};

}  // namespace mlsc
