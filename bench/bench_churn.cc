// Churn benchmark for the online mapping service (DESIGN.md §17): how
// much mapping work a single arrival costs against a standing state vs
// the full recompute the offline pipeline would run.
//
// The sweep grows a standing MappingState from distinct-data-key
// instances (cycling the Table 2 workloads with perturbed size factors,
// so every instance owns its own tag-bit range) and, at each standing
// size, times and counts
//   delta:  register one new instance + patch it into the standing cut
//           (scored pairs + forest hooks proportional to the arrival),
//   full:   rebuild_all and recut.  full_pairs counts the work of a
//           from-scratch rebuild (every live chunk re-scored, what a
//           from-scratch pipeline run would pay).  full_ms times the
//           service's rebuild, which re-scores only the data keys churn
//           touched since their last from-scratch hook — none here, as
//           every instance owns its key — so it times the forest reset
//           and the recut.
// work_ratio = full work / delta work is deterministic (counted, not
// timed) and CI-guarded: the 65536-chunk row must stay >= 10x.  The
// second table replays a fixed churn script through MappingService and
// reports the decision mix, pinning the policy's behaviour.
//
// Output: tables on stdout plus BENCH_churn.json (override with
// --json=<path>).  Extra flags:
//   --standing=N    largest standing-chunk sweep point (default 65536)
//   --max-chunks=N  iteration-chunk cap per instance (default 4096)
//   --threads=N     mapping threads, 0 = all cores (default 0)
#include <chrono>
#include <cstdint>
#include <cstring>
#include <iostream>
#include <string>
#include <vector>

#include "bench/common.h"
#include "serve/event.h"
#include "serve/policy.h"
#include "serve/service.h"
#include "serve/state.h"
#include "support/check.h"
#include "support/string_util.h"
#include "support/thread_pool.h"
#include "support/units.h"

namespace {

using namespace mlsc;

double elapsed_ms(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - start)
      .count();
}

std::size_t parse_size_flag(const std::string& arg, const char* name) {
  const std::string value = arg.substr(std::strlen(name));
  char* end = nullptr;
  const unsigned long long parsed = std::strtoull(value.c_str(), &end, 10);
  if (value.empty() || end != value.c_str() + value.size()) {
    std::cerr << "error: " << name << " needs a number\n";
    std::exit(3);
  }
  return static_cast<std::size_t>(parsed);
}

const char* kNames[] = {"astro", "hf", "sar"};

/// Registers standing instance number `i` (unique data key: perturbed
/// size factor) and patches it in.
void add_standing(serve::MappingState& state, std::size_t i,
                  ThreadPool* pool) {
  serve::DeltaStats stats;
  const std::size_t widx = state.register_workload(
      "standing-" + std::to_string(i), kNames[i % 3],
      0.0625 * (1.0 + static_cast<double>(i) * 1e-6), 2, pool, &stats);
  state.apply_patch(state.build_patch(widx));
}

std::uint64_t work_of(const serve::DeltaStats& stats) {
  return stats.scored_pairs + stats.forest_hooks;
}

/// The fixed churn script behind the decision-mix table: a ramp of
/// arrivals, a burst of departures, a scale-up, and a client fail-stop.
std::vector<serve::ServeEvent> decision_script() {
  using serve::EventKind;
  std::vector<serve::ServeEvent> events;
  auto push = [&](serve::ServeEvent event) {
    event.at = events.size() * kMillisecond;
    events.push_back(std::move(event));
  };
  for (std::size_t i = 0; i < 12; ++i) {
    serve::ServeEvent e;
    e.kind = EventKind::kRegister;
    e.id = "w" + std::to_string(i);
    e.workload = kNames[i % 3];
    e.size_factor = 0.0625 * (1.0 + static_cast<double>(i % 4) * 1e-6);
    e.clients = 2;
    push(e);
  }
  for (const char* id : {"w1", "w4", "w7"}) {
    serve::ServeEvent e;
    e.kind = EventKind::kDepart;
    e.id = id;
    push(e);
  }
  {
    serve::ServeEvent e;
    e.kind = EventKind::kScale;
    e.id = "w0";
    e.clients = 6;
    push(e);
  }
  {
    serve::ServeEvent e;
    e.kind = EventKind::kFault;
    e.fault_spec = "fail@" + std::to_string(events.size() * kMillisecond) +
                   ":l1.3";
    push(e);
  }
  return events;
}

}  // namespace

int main(int argc, char** argv) {
  std::vector<char*> args(argv, argv + argc);
  static char default_json[] = "--json=BENCH_churn.json";
  bool has_json = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--json=", 7) == 0) has_json = true;
  }
  if (!has_json) args.push_back(default_json);
  bench::parse_common_flags(static_cast<int>(args.size()), args.data());
  bench::set_record_seed(2026);
  bench::set_record_apps({"astro", "hf", "sar"});

  std::size_t standing_max = 65536;
  std::size_t max_chunks = 4096;
  std::size_t threads = 0;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--standing=", 0) == 0) {
      standing_max = parse_size_flag(arg, "--standing=");
    } else if (arg.rfind("--max-chunks=", 0) == 0) {
      max_chunks = parse_size_flag(arg, "--max-chunks=");
      if (max_chunks == 0 || max_chunks > UINT32_MAX) {
        std::cerr << "error: --max-chunks= needs a value in 1.."
                  << UINT32_MAX << "\n";
        std::exit(3);
      }
    } else if (arg.rfind("--threads=", 0) == 0) {
      threads = parse_size_flag(arg, "--threads=");
    }
  }

  const auto machine = sim::MachineConfig::paper_default();
  bench::print_header("online churn: delta vs full mapping work", machine);

  serve::ServeStateOptions state_options;
  state_options.tagging.max_iteration_chunks =
      static_cast<std::uint32_t>(max_chunks);
  serve::MappingState state(machine, state_options);
  ThreadPool pool(resolve_num_threads(threads));

  std::vector<std::size_t> sweep;
  for (std::size_t n = 8192; n < standing_max; n *= 4) sweep.push_back(n);
  sweep.push_back(standing_max);

  Table delta_work({"standing", "instances", "delta_pairs", "full_pairs",
                    "work_ratio", "imb_patch", "imb_full", "delta_ms",
                    "full_ms", "delta_speedup"});
  std::size_t next_standing = 0;
  std::size_t next_probe = 0;
  for (const std::size_t target : sweep) {
    while (state.standing_chunks() < target) {
      add_standing(state, next_standing++, &pool);
    }

    // Delta: one arrival with a brand-new data key, patched in.
    serve::DeltaStats delta;
    const auto delta_start = std::chrono::steady_clock::now();
    const std::size_t widx = state.register_workload(
        "probe-" + std::to_string(next_probe), "astro",
        0.0625 * (1.0 + static_cast<double>(100000 + next_probe) * 1e-6), 2,
        &pool,
        &delta);
    ++next_probe;
    state.apply_patch(state.build_patch(widx));
    const double delta_ms = elapsed_ms(delta_start);
    const double imb_patch = state.imbalance();

    // Full: counts what a from-scratch pipeline pays for the same live
    // set; times the service's rebuild of it.
    serve::DeltaStats full;
    const auto full_start = std::chrono::steady_clock::now();
    state.rebuild_all(&pool, &full);
    const double full_ms = elapsed_ms(full_start);
    const double imb_full = state.imbalance();
    state.check_invariants();

    const double work_ratio = static_cast<double>(work_of(full)) /
                              static_cast<double>(std::max<std::uint64_t>(
                                  work_of(delta), 1));
    delta_work.add_row(
        {std::to_string(target), std::to_string(state.num_live_workloads()),
         std::to_string(work_of(delta)), std::to_string(work_of(full)),
         format_double(work_ratio, 2), format_double(imb_patch, 4),
         format_double(imb_full, 4), format_double(delta_ms, 2),
         format_double(full_ms, 2),
         format_double(full_ms / std::max(delta_ms, 1e-9), 2)});
    std::cerr << "[bench] standing=" << state.standing_chunks()
              << " delta=" << work_of(delta) << " full=" << work_of(full)
              << " ratio=" << format_double(work_ratio, 1) << "\n";
  }
  bench::print_table(delta_work, "delta_work");

  // Decision mix over the fixed churn script (deterministic: guarded).
  // A small topology so the cut target reaches the client count and all
  // three scopes appear (idle clients pin imbalance above the patch
  // limit on the 64-client paper machine).
  serve::ServiceOptions service_options;
  service_options.machine.clients = 8;
  service_options.machine.io_nodes = 4;
  service_options.machine.storage_nodes = 2;
  service_options.num_threads = threads;
  service_options.state.tagging.max_iteration_chunks =
      static_cast<std::uint32_t>(std::min<std::size_t>(max_chunks, 1024));
  serve::MappingService service(service_options);
  for (const auto& event : decision_script()) service.process(event);
  std::size_t counts[4] = {0, 0, 0, 0};
  for (const auto& decision : service.decisions()) {
    counts[static_cast<std::size_t>(decision.scope)]++;
  }
  Table decisions({"scope", "count"});
  decisions.add_row({"patch", std::to_string(
                                  counts[static_cast<std::size_t>(
                                      serve::RemapScope::kPatch)])});
  decisions.add_row({"partial", std::to_string(
                                    counts[static_cast<std::size_t>(
                                        serve::RemapScope::kPartial)])});
  decisions.add_row({"full", std::to_string(
                                 counts[static_cast<std::size_t>(
                                     serve::RemapScope::kFull)])});
  bench::print_table(decisions, "churn_decisions");

  // Deterministic end-state totals of the scripted run: the modelled
  // remap pause the policy charged and the load imbalance it left.
  Table totals({"metric", "value"});
  totals.add_row({"modelled_pause_us",
                  format_double(static_cast<double>(service.total_pause()) /
                                    static_cast<double>(kMicrosecond),
                                3)});
  totals.add_row({"end_imbalance",
                  format_double(service.state().imbalance(), 6)});
  totals.add_row({"live_workloads",
                  std::to_string(service.state().num_live_workloads())});
  bench::print_table(totals, "churn_totals");

  bench::write_json_output();
  return 0;
}
