#include "bench.h"

#include <sys/resource.h>

#include <algorithm>
#include <cstdio>
#include <sstream>

#include "support/json.h"

namespace perfbench {

void Checks::record(bool ok, const std::string& what) {
  ++attempted;
  if (!ok) {
    ++failed;
    failures.push_back(what);
  }
}

void Checks::require(bool ok, const std::string& what) {
  if (!ok) failures.push_back(what);
}

std::string sim_fingerprint(
    const mlsc::sim::EngineResult& e, std::size_t sync_edges,
    const std::vector<mlsc::sim::LevelMovement>& movement) {
  std::ostringstream out;
  for (const auto* level : {&e.l1, &e.l2, &e.l3}) {
    out << level->accesses << '/' << level->hits << '/' << level->misses
        << '/' << level->evictions << '/' << level->dirty_evictions << ' ';
  }
  out << e.exec_time << ' ' << e.io_time_total << ' ' << e.io_time_max << ' '
      << e.compute_time_total << ' ' << e.sync_wait_total << ' '
      << e.time_client_cache << ' ' << e.time_shared_cache << ' '
      << e.time_peer_cache << ' ' << e.time_disk << ' ' << e.time_disk_queue
      << ' ' << e.time_retry << ' ' << e.time_failover << ' ';
  const auto& b = e.bytes;
  out << b.from_l1 << ' ' << b.from_l2 << ' ' << b.from_l3 << ' '
      << b.from_peer << ' ' << b.from_disk << ' ' << b.prefetch << ' '
      << b.writeback << ' ';
  out << e.accesses << ' ' << e.disk_requests << ' ' << e.disk_writebacks
      << ' ' << e.peer_hits << ' ' << e.prefetches << ' ' << sync_edges;
  for (const auto& row : movement) {
    out << ' ' << row.level << ':' << row.bytes_moved << ':'
        << row.io_lower_bound;
  }
  return out.str();
}

bool stalls_sum(const mlsc::sim::EngineResult& e) {
  return e.time_client_cache + e.time_shared_cache + e.time_peer_cache +
             e.time_disk + e.time_retry + e.time_failover ==
         e.io_time_total;
}

bool headroom_bounded(const std::vector<mlsc::sim::LevelMovement>& movement) {
  for (const auto& row : movement) {
    if (!(row.headroom_pct <= 100.0)) return false;
  }
  return !movement.empty();
}

void engine_values(const std::vector<const mlsc::sim::EngineResult*>& runs,
                   Values& values) {
  std::uint64_t misses[3] = {0, 0, 0};
  std::uint64_t accesses[3] = {0, 0, 0};
  double disk_requests = 0, peer_hits = 0, prefetches = 0, writebacks = 0;
  double sync_wait = 0, client_time = 0, disk_queue = 0, io_time = 0;
  for (const mlsc::sim::EngineResult* e : runs) {
    const mlsc::cache::CacheStats* levels[3] = {&e->l1, &e->l2, &e->l3};
    for (int i = 0; i < 3; ++i) {
      misses[i] += levels[i]->misses;
      accesses[i] += levels[i]->accesses;
    }
    disk_requests += static_cast<double>(e->disk_requests);
    peer_hits += static_cast<double>(e->peer_hits);
    prefetches += static_cast<double>(e->prefetches);
    writebacks += static_cast<double>(e->disk_writebacks);
    sync_wait += static_cast<double>(e->sync_wait_total);
    client_time += static_cast<double>(e->compute_time_total +
                                       e->io_time_total + e->sync_wait_total);
    disk_queue += static_cast<double>(e->time_disk_queue);
    io_time += static_cast<double>(e->io_time_total);
  }
  const char* miss_names[3] = {"l1.miss_pct", "l2.miss_pct", "l3.miss_pct"};
  for (int i = 0; i < 3; ++i) {
    values[miss_names[i]] = accesses[i] == 0
                                ? 0.0
                                : 100.0 * static_cast<double>(misses[i]) /
                                      static_cast<double>(accesses[i]);
  }
  values["engine.disk_requests"] = disk_requests;
  values["engine.peer_hits"] = peer_hits;
  values["engine.prefetches"] = prefetches;
  values["engine.writebacks"] = writebacks;
  values["engine.sync_wait_share"] =
      client_time > 0 ? sync_wait / client_time : 0.0;
  values["engine.disk_queue_share"] = io_time > 0 ? disk_queue / io_time : 0.0;
}

std::vector<ProgramSpan> read_program_spans(const std::string& path) {
  const mlsc::JsonValue doc = mlsc::parse_json_file(path);
  std::vector<ProgramSpan> spans;
  const mlsc::JsonValue* events = doc.find("traceEvents");
  if (events == nullptr || !events->is_array()) return spans;
  for (const mlsc::JsonValue& event : events->as_array()) {
    const mlsc::JsonValue* ph = event.find("ph");
    const mlsc::JsonValue* pid = event.find("pid");
    if (ph == nullptr || ph->string_or("") != "X") continue;
    if (pid == nullptr || pid->number_or(-1) != 0) continue;
    ProgramSpan span;
    span.name = event.find("name")->string_or("");
    span.tid = static_cast<std::int64_t>(event.find("tid")->number_or(0));
    span.ts_us = event.find("ts")->number_or(0);
    span.dur_us = event.find("dur")->number_or(0);
    if (const mlsc::JsonValue* args = event.find("args")) {
      if (args->is_object()) {
        for (const auto& [key, value] : args->as_object()) {
          if (value.is_number()) span.args[key] = value.as_number();
        }
      }
    }
    spans.push_back(std::move(span));
  }
  return spans;
}

double span_ms(const std::vector<ProgramSpan>& spans, const std::string& name) {
  double total_us = 0.0;
  for (const ProgramSpan& span : spans) {
    if (span.name == name) total_us += span.dur_us;
  }
  return total_us * 1e-3;
}

std::size_t timed_passes(double seconds) {
  return std::max<std::size_t>(2, static_cast<std::size_t>(seconds / 20.0));
}

void print_layers(const SpanLog& log, double pass_ms) {
  std::printf("  %-12s %8s %12s %12s %8s\n", "layer", "calls", "self_ms",
              "total_ms", "share");
  for (const auto& [name, layer] : log.layers()) {
    std::printf("  %-12s %8zu %12.3f %12.3f %7.2f%%\n", name.c_str(),
                layer.calls, layer.self_ms, layer.total_ms,
                100.0 * layer.total_ms / pass_ms);
  }
}

bool keep_setting_up(const std::vector<double>& setup_s) {
  double spent = 0.0;
  for (double s : setup_s) spent += s;
  return setup_s.size() < 3 || (spent < 0.5 && setup_s.size() < 2000);
}

double peak_rss_mib() {
  struct rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

}  // namespace perfbench
