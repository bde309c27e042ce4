#include "support/argparse.h"

#include <cerrno>
#include <charconv>
#include <cstdlib>

#include "support/log.h"

namespace mlsc {

bool ArgParser::value_flag(const char* name) {
  const std::string prefix = std::string(name) + "=";
  if (arg_.rfind(prefix, 0) == 0) {
    flag_name_ = name;
    value_ = arg_.substr(prefix.size());
    return true;
  }
  if (arg_ == name) {
    if (i_ + 1 >= argc_) {
      throw UsageError(std::string("missing value for ") + name);
    }
    flag_name_ = name;
    value_ = argv_[++i_];
    return true;
  }
  return false;
}

std::uint64_t ArgParser::value_u64() const {
  std::uint64_t out = 0;
  const char* begin = value_.c_str();
  const char* end = begin + value_.size();
  const auto [ptr, ec] = std::from_chars(begin, end, out);
  if (ec != std::errc() || ptr != end || value_.empty()) {
    throw UsageError(flag_name_ + ": expected a non-negative integer, got '" +
                     value_ + "'");
  }
  return out;
}

std::uint64_t ArgParser::value_u64_in(std::uint64_t lo,
                                      std::uint64_t hi) const {
  const std::uint64_t out = value_u64();
  if (out < lo || out > hi) {
    throw UsageError(flag_name_ + ": expected " + std::to_string(lo) + ".." +
                     std::to_string(hi) + ", got " + value_);
  }
  return out;
}

double ArgParser::value_double() const {
  errno = 0;
  char* end = nullptr;
  const double out = std::strtod(value_.c_str(), &end);
  if (end == value_.c_str() || *end != '\0' || errno == ERANGE) {
    throw UsageError(flag_name_ + ": expected a number, got '" + value_ +
                     "'");
  }
  return out;
}

bool CommonToolOptions::match(ArgParser& args) {
  if (args.value_flag("--trace")) {
    trace_path = args.value();
  } else if (args.value_flag("--metrics")) {
    metrics_path = args.value();
  } else if (args.value_flag("--json")) {
    json_path = args.value();
  } else if (args.value_flag("--log-level")) {
    LogLevel level;
    if (!parse_log_level(args.value(), &level)) {
      throw UsageError("--log-level: unknown level '" + args.value() + "'");
    }
    set_log_level(level);
  } else if (accept_reps && args.value_flag("--reps")) {
    repetitions = args.value_u64();
    if (repetitions < 1) {
      throw UsageError("--reps: expected a positive count");
    }
  } else if (accept_explain && args.flag("--explain")) {
    explain = true;
  } else {
    return false;
  }
  return true;
}

std::string CommonToolOptions::usage(bool with_reps, bool with_explain) {
  std::string out =
      "  --trace PATH        write a Chrome trace_event JSON timeline\n"
      "  --metrics PATH      write the metrics registry as JSON on exit\n"
      "  --json PATH         write an mlsc-run-record-v1 run record for\n"
      "                      mlsc_bench_diff / mlsc_report\n"
      "  --log-level L       debug|info|warn|error|off (default warn)\n";
  if (with_reps) {
    out += "  --reps N            timing repetitions (default 1)\n";
  }
  if (with_explain) {
    out +=
        "  --explain           classify misses (compulsory/capacity/\n"
        "                      interference) and record reuse-distance\n"
        "                      curves per cache level (DESIGN.md \xC2\xA7"
        "18)\n";
  }
  return out;
}

}  // namespace mlsc
