#include "resilience/fault.h"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdlib>
#include <limits>
#include <sstream>
#include <string_view>

#include "support/check.h"
#include "support/string_util.h"

namespace mlsc::resilience {
namespace {

using topology::NodeId;
using topology::NodeKind;

/// Cache level numbering used by schedules: 1 = compute, 2 = I/O,
/// 3 = storage (matches the paper's L1/L2/L3).
NodeKind level_kind(std::uint32_t level) {
  switch (level) {
    case 1:
      return NodeKind::kCompute;
    case 2:
      return NodeKind::kIo;
    case 3:
      return NodeKind::kStorage;
    default:
      throw Error("fault schedule: cache level must be 1 (compute), "
                  "2 (io) or 3 (storage), got " +
                  std::to_string(level));
  }
}

bool is_targeted(FaultKind kind) {
  return kind == FaultKind::kFailStop || kind == FaultKind::kDegrade ||
         kind == FaultKind::kRecover;
}

FaultKind kind_from_name(std::string_view name) {
  if (name == "fail" || name == "fail-stop") return FaultKind::kFailStop;
  if (name == "degrade") return FaultKind::kDegrade;
  if (name == "transient") return FaultKind::kTransient;
  if (name == "recover") return FaultKind::kRecover;
  if (name == "stall") return FaultKind::kStall;
  throw Error("fault schedule: unknown event kind '" + std::string(name) +
              "' (expected fail-stop, degrade, transient, recover or stall)");
}

double parse_spec_number(std::string_view text, const char* what) {
  const std::string s(text);
  char* end = nullptr;
  const double value = std::strtod(s.c_str(), &end);
  if (end == s.c_str() || *end != '\0' || !std::isfinite(value)) {
    throw Error(std::string("fault spec: malformed ") + what + " '" + s + "'");
  }
  return value;
}

/// "5ms" / "100us" / "1.5s" / bare nanoseconds.
Nanoseconds parse_spec_time(std::string_view text, const char* what) {
  const std::string s(text);
  char* end = nullptr;
  const double value = std::strtod(s.c_str(), &end);
  if (end == s.c_str() || value < 0 || !std::isfinite(value)) {
    throw Error(std::string("fault spec: malformed ") + what + " '" + s + "'");
  }
  const std::string_view suffix(end);
  double scale = 1.0;
  if (suffix.empty() || suffix == "ns") {
    scale = 1.0;
  } else if (suffix == "us") {
    scale = 1e3;
  } else if (suffix == "ms") {
    scale = 1e6;
  } else if (suffix == "s") {
    scale = 1e9;
  } else {
    throw Error(std::string("fault spec: bad time suffix on ") + what + " '" +
                s + "' (use ns, us, ms or s)");
  }
  // std::llround's range ends at 2^63; past it the result is unspecified.
  const double ns = value * scale;
  if (!(ns < 0x1p63)) {
    throw Error(std::string("fault spec: ") + what + " '" + s +
                "' is out of range (must be below 2^63 ns, about 292 years)");
  }
  return static_cast<Nanoseconds>(std::llround(ns));
}

/// A decimal integer of type T: digits only (no sign, no fraction, no
/// exponent), nothing after them, and within T's range.
template <typename T>
T parse_spec_integer(std::string_view text, const char* what) {
  T value{};
  const char* last = text.data() + text.size();
  const auto [end, ec] = std::from_chars(text.data(), last, value);
  if (text.empty() || text[0] == '-' || ec == std::errc::invalid_argument ||
      end != last) {
    throw Error(std::string("fault spec: malformed ") + what + " '" +
                std::string(text) + "' (expected a nonnegative integer)");
  }
  if (ec == std::errc::result_out_of_range) {
    throw Error(std::string("fault spec: ") + what + " '" +
                std::string(text) + "' out of range (at most " +
                std::to_string(std::numeric_limits<T>::max()) + ")");
  }
  return value;
}

/// "l2" (all nodes of the level) or "l2.0" (node 0 of the level).
void parse_spec_target(std::string_view text, FaultEvent& event) {
  if (text.size() < 2 || text[0] != 'l') {
    throw Error("fault spec: malformed target '" + std::string(text) +
                "' (expected lLEVEL or lLEVEL.NODE)");
  }
  const std::size_t dot = text.find('.');
  event.level = parse_spec_integer<std::uint32_t>(
      text.substr(1, dot - 1), "target level");
  level_kind(event.level);  // validates the range
  event.node_index =
      dot == std::string_view::npos
          ? -1
          : parse_spec_integer<std::int32_t>(text.substr(dot + 1),
                                             "target node index");
}

/// Applies "key=value,key=value" option lists for degrade/transient.
void parse_spec_options(std::string_view text, FaultEvent& event) {
  for (const std::string& item : split(std::string(text), ',')) {
    const std::size_t eq = item.find('=');
    if (eq == std::string::npos) {
      throw Error("fault spec: malformed option '" + item +
                  "' (expected key=value)");
    }
    const std::string key = item.substr(0, eq);
    const std::string_view value = std::string_view(item).substr(eq + 1);
    if (key == "lat") {
      event.latency_factor = parse_spec_number(value, "lat");
    } else if (key == "cap") {
      event.capacity_divisor = parse_spec_number(value, "cap");
    } else if (key == "disk") {
      event.disk_error_rate = parse_spec_number(value, "disk");
    } else if (key == "net") {
      event.net_error_rate = parse_spec_number(value, "net");
    } else {
      throw Error("fault spec: unknown option '" + key + "'");
    }
  }
}

void validate_event(const FaultEvent& event) {
  if (is_targeted(event.kind)) level_kind(event.level);
  if (event.kind == FaultKind::kDegrade) {
    if (event.latency_factor < 1.0) {
      throw Error("fault schedule: degrade latency_factor must be >= 1");
    }
    if (event.capacity_divisor < 1.0) {
      throw Error("fault schedule: degrade capacity_divisor must be >= 1");
    }
  }
  if (event.kind == FaultKind::kTransient) {
    for (const double rate : {event.disk_error_rate, event.net_error_rate}) {
      if (rate < 0.0 || rate > 1.0) {
        throw Error("fault schedule: transient error rates must be in [0, 1]");
      }
    }
  }
}

std::string event_to_string(const FaultEvent& event) {
  std::ostringstream out;
  out << fault_kind_name(event.kind) << '@' << format_time(event.at);
  if (is_targeted(event.kind)) {
    out << " l" << event.level << '[';
    if (event.node_index < 0) {
      out << '*';
    } else {
      out << event.node_index;
    }
    out << ']';
  }
  if (event.kind == FaultKind::kDegrade) {
    out << " lat=" << format_double(event.latency_factor, 2)
        << " cap=" << format_double(event.capacity_divisor, 2);
  }
  if (event.kind == FaultKind::kTransient) {
    out << " disk=" << format_double(event.disk_error_rate, 4)
        << " net=" << format_double(event.net_error_rate, 4);
  }
  if (event.kind == FaultKind::kStall) {
    out << ' ' << format_time(event.duration);
  }
  return out.str();
}

/// SplitMix64 finalizer — the per-draw hash behind draw_error.
std::uint64_t mix64(std::uint64_t x) {
  x += 0x9E3779B97F4A7C15ull;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ull;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBull;
  return x ^ (x >> 31);
}

}  // namespace

const char* fault_kind_name(FaultKind kind) {
  switch (kind) {
    case FaultKind::kFailStop:
      return "fail-stop";
    case FaultKind::kDegrade:
      return "degrade";
    case FaultKind::kTransient:
      return "transient";
    case FaultKind::kRecover:
      return "recover";
    case FaultKind::kStall:
      return "stall";
  }
  return "unknown";
}

void FaultSchedule::add(FaultEvent event) {
  validate_event(event);
  auto pos = std::upper_bound(
      events.begin(), events.end(), event.at,
      [](Nanoseconds at, const FaultEvent& e) { return at < e.at; });
  events.insert(pos, event);
}

std::string FaultSchedule::to_string() const {
  if (events.empty()) return "none";
  std::vector<std::string> parts;
  parts.reserve(events.size());
  for (const FaultEvent& event : events) {
    parts.push_back(event_to_string(event));
  }
  return join(parts, "; ") + " (seed " + std::to_string(seed) + ")";
}

FaultSchedule parse_fault_spec(std::string_view spec) {
  FaultSchedule schedule;
  for (const std::string& raw : split(std::string(spec), ';')) {
    // Trim surrounding spaces so "a; b" parses like "a;b".
    const std::size_t begin = raw.find_first_not_of(' ');
    if (begin == std::string::npos) continue;
    const std::string token = raw.substr(begin, raw.find_last_not_of(' ') -
                                                    begin + 1);
    if (token.rfind("seed=", 0) == 0) {
      schedule.seed = parse_spec_integer<std::uint64_t>(
          std::string_view(token).substr(5), "seed");
      continue;
    }
    const std::vector<std::string> parts = split(token, ':');
    const std::string& head = parts[0];
    const std::size_t at = head.find('@');
    if (at == std::string::npos) {
      throw Error("fault spec: malformed event '" + token +
                  "' (expected kind@time[:target][:options] or seed=N)");
    }
    const std::string kind_name = head.substr(0, at);
    const std::string_view time_part = std::string_view(head).substr(at + 1);
    FaultEvent event;
    event.kind = kind_from_name(kind_name);
    event.at = parse_spec_time(time_part, "event time");
    std::size_t next = 1;
    if (is_targeted(event.kind)) {
      if (parts.size() < 2) {
        throw Error("fault spec: '" + token + "' needs a target (e.g. l2.0)");
      }
      parse_spec_target(parts[next++], event);
    }
    if (event.kind == FaultKind::kStall) {
      if (parts.size() < 2) {
        throw Error("fault spec: '" + token + "' needs a duration");
      }
      event.duration = parse_spec_time(parts[next++], "stall duration");
    }
    for (; next < parts.size(); ++next) {
      parse_spec_options(parts[next], event);
    }
    schedule.add(event);
  }
  return schedule;
}

FaultInjector::FaultInjector(FaultSchedule schedule, RetryPolicy retry,
                             const topology::HierarchyTree& tree)
    : schedule_(std::move(schedule)),
      retry_(retry),
      tree_(tree),
      latency_factor_(tree.num_nodes(), 1.0),
      failed_(tree.num_nodes(), 0),
      capacity_divisor_(tree.num_nodes(), 1.0),
      stall_charged_(tree.num_clients(), 0) {
  MLSC_CHECK(tree_.finalized(), "FaultInjector needs a finalized tree");
  std::stable_sort(
      schedule_.events.begin(), schedule_.events.end(),
      [](const FaultEvent& a, const FaultEvent& b) { return a.at < b.at; });
  // Resolve every event's targets now so malformed schedules fail before
  // the replay starts rather than mid-run.
  for (const FaultEvent& event : schedule_.events) {
    validate_event(event);
    if (is_targeted(event.kind)) targets(event);
  }
}

std::vector<NodeId> resolve_fault_targets(
    const topology::HierarchyTree& tree, const FaultEvent& event) {
  const NodeKind kind = level_kind(event.level);
  std::vector<NodeId> nodes;
  for (NodeId id = 0; id < tree.num_nodes(); ++id) {
    if (tree.node(id).kind == kind) nodes.push_back(id);
  }
  if (nodes.empty()) {
    throw Error(std::string("fault schedule: topology has no level-") +
                std::to_string(event.level) + " nodes");
  }
  if (event.node_index < 0) return nodes;
  if (static_cast<std::size_t>(event.node_index) >= nodes.size()) {
    throw Error("fault schedule: node index " +
                std::to_string(event.node_index) + " out of range for level " +
                std::to_string(event.level) + " (" +
                std::to_string(nodes.size()) + " nodes)");
  }
  return {nodes[static_cast<std::size_t>(event.node_index)]};
}

std::vector<NodeId> FaultInjector::targets(const FaultEvent& event) const {
  return resolve_fault_targets(tree_, event);
}

void FaultInjector::advance_to(Nanoseconds now,
                               cache::MultiLevelCache* cache) {
  while (next_event_ < schedule_.events.size() &&
         schedule_.events[next_event_].at <= now) {
    apply(schedule_.events[next_event_], cache);
    ++next_event_;
  }
}

void FaultInjector::apply(const FaultEvent& event,
                          cache::MultiLevelCache* cache) {
  std::ostringstream description;
  description << fault_kind_name(event.kind);
  switch (event.kind) {
    case FaultKind::kFailStop:
      for (const NodeId id : targets(event)) {
        failed_[id] = 1;
        latency_factor_[id] = 1.0;
        capacity_divisor_[id] = 1.0;
        if (cache != nullptr) cache->set_node_failed(id, true);
        description << ' ' << tree_.node(id).name;
      }
      break;
    case FaultKind::kDegrade:
      for (const NodeId id : targets(event)) {
        latency_factor_[id] = event.latency_factor;
        capacity_divisor_[id] = event.capacity_divisor;
        if (cache != nullptr) {
          cache->set_node_capacity_divisor(id, event.capacity_divisor);
        }
        description << ' ' << tree_.node(id).name;
      }
      description << " lat=" << format_double(event.latency_factor, 2)
                  << " cap=" << format_double(event.capacity_divisor, 2);
      break;
    case FaultKind::kRecover:
      for (const NodeId id : targets(event)) {
        failed_[id] = 0;
        latency_factor_[id] = 1.0;
        capacity_divisor_[id] = 1.0;
        if (cache != nullptr) {
          cache->set_node_failed(id, false);
          cache->set_node_capacity_divisor(id, 1.0);
        }
        description << ' ' << tree_.node(id).name;
      }
      break;
    case FaultKind::kTransient:
      disk_error_rate_ = event.disk_error_rate;
      net_error_rate_ = event.net_error_rate;
      description << " disk=" << format_double(event.disk_error_rate, 4)
                  << " net=" << format_double(event.net_error_rate, 4);
      break;
    case FaultKind::kStall:
      total_stall_ += event.duration;
      description << ' ' << format_time(event.duration);
      break;
  }
  applied_.push_back(AppliedFault{event.at, description.str()});
}

Nanoseconds FaultInjector::take_pending_stall(std::size_t client) {
  MLSC_CHECK(client < stall_charged_.size(), "client out of range");
  const Nanoseconds pending = total_stall_ - stall_charged_[client];
  stall_charged_[client] = total_stall_;
  return pending;
}

bool FaultInjector::draw_error(std::uint64_t client, std::uint64_t op,
                               std::uint32_t attempt, double rate) const {
  if (rate <= 0.0) return false;
  if (rate >= 1.0) return true;
  // Chained SplitMix64 over (seed, client, op, attempt): the verdict for
  // a given attempt is a pure function of its identity, independent of
  // the interleaving the replay happens to use.
  std::uint64_t h = mix64(schedule_.seed ^ 0xA5A5A5A5A5A5A5A5ull);
  h = mix64(h ^ client);
  h = mix64(h ^ op);
  h = mix64(h ^ attempt);
  const double u = static_cast<double>(h >> 11) * 0x1.0p-53;
  return u < rate;
}

FaultInjector fault_end_state(FaultSchedule schedule,
                              const topology::HierarchyTree& tree) {
  FaultInjector injector(std::move(schedule), RetryPolicy{}, tree);
  injector.advance_to(std::numeric_limits<Nanoseconds>::max(), nullptr);
  return injector;
}

}  // namespace mlsc::resilience
