// Tests for the online mapping service: event-stream parsing (round
// trips, journal decoration, stream-level validation), the remap
// cost/benefit policy, incremental MappingState operations (register /
// patch / depart / scale / fault), brute-force oracles for the scored
// pair count and the patch's leftover merge, the two acceptance oracles
// — journal determinism across thread counts and forced-full ==
// from-scratch — and the run-record snapshot surface.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <map>
#include <numeric>
#include <random>
#include <set>
#include <sstream>
#include <string>
#include <tuple>
#include <vector>

#include "core/affinity_forest.h"
#include "core/clustering.h"
#include "obs/metrics.h"
#include "serve/event.h"
#include "serve/policy.h"
#include "serve/service.h"
#include "serve/state.h"
#include "support/check.h"
#include "support/json.h"
#include "support/thread_pool.h"

namespace mlsc::serve {
namespace {

sim::MachineConfig tiny_machine() {
  sim::MachineConfig config;
  config.clients = 8;
  config.io_nodes = 4;
  config.storage_nodes = 2;
  return config;
}

ServeEvent make_register(Nanoseconds at, const std::string& id,
                         const std::string& name, double size_factor,
                         std::uint32_t clients) {
  ServeEvent event;
  event.at = at;
  event.kind = EventKind::kRegister;
  event.id = id;
  event.workload = name;
  event.size_factor = size_factor;
  event.clients = clients;
  return event;
}

ServeEvent make_depart(Nanoseconds at, const std::string& id) {
  ServeEvent event;
  event.at = at;
  event.kind = EventKind::kDepart;
  event.id = id;
  return event;
}

ServeEvent make_fault(Nanoseconds at, const std::string& spec) {
  ServeEvent event;
  event.kind = EventKind::kFault;
  event.at = at;
  event.fault_spec = spec;
  return event;
}

ServiceOptions tiny_options() {
  ServiceOptions options;
  options.machine = tiny_machine();
  options.state.tagging.max_iteration_chunks = 64;
  return options;
}

/// A small churn history: three arrivals (two sharing a data key), one
/// departure, one late arrival.
std::vector<ServeEvent> churn_events() {
  std::vector<ServeEvent> events;
  events.push_back(make_register(0, "a", "astro", 1.0 / 16.0, 2));
  events.push_back(make_register(1 * kMillisecond, "b", "hf", 1.0 / 16.0, 2));
  events.push_back(
      make_register(2 * kMillisecond, "c", "astro", 1.0 / 16.0, 2));
  events.push_back(make_depart(3 * kMillisecond, "b"));
  events.push_back(make_register(4 * kMillisecond, "d", "sar", 1.0 / 16.0, 2));
  return events;
}

// --- events ----------------------------------------------------------------

TEST(ServeEvent, JsonRoundTripsEveryKind) {
  std::vector<ServeEvent> events;
  events.push_back(make_register(5, "w1", "astro", 0.25, 3));
  events.push_back(make_depart(7, "w1"));
  ServeEvent scale;
  scale.at = 9;
  scale.kind = EventKind::kScale;
  scale.id = "w2";
  scale.clients = 6;
  events.push_back(scale);
  ServeEvent fault;
  fault.at = 11;
  fault.kind = EventKind::kFault;
  fault.fault_spec = "fail@11:l1.0";
  events.push_back(fault);

  for (const auto& event : events) {
    const auto doc = parse_json(event_to_json(event));
    const ServeEvent back = parse_serve_event(doc);
    EXPECT_EQ(back.at, event.at);
    EXPECT_EQ(back.kind, event.kind);
    EXPECT_EQ(back.id, event.id);
    EXPECT_EQ(back.workload, event.workload);
    EXPECT_DOUBLE_EQ(back.size_factor, event.size_factor);
    EXPECT_EQ(back.clients, event.clients);
    EXPECT_EQ(back.fault_spec, event.fault_spec);
  }
}

TEST(ServeEvent, ParserIgnoresJournalDecoration) {
  const ServeEvent event = make_register(3, "w", "hf", 0.0625, 2);
  std::string line = event_to_json(event);
  ASSERT_EQ(line.back(), '}');
  line.pop_back();
  line += ",\"decision\":{\"scope\":\"patch\",\"reason\":\"ok\"}}";
  const ServeEvent back = parse_serve_event(parse_json(line));
  EXPECT_EQ(back.id, "w");
  EXPECT_EQ(back.clients, 2u);
}

TEST(ServeEvent, RejectsUnknownTypeAndBadClients) {
  EXPECT_THROW(
      parse_serve_event(parse_json(
          R"({"at":0,"event":"resize","id":"w"})")),
      Error);
  EXPECT_THROW(
      parse_serve_event(parse_json(
          R"({"at":0,"event":"register","id":"w","workload":"hf",)"
          R"("size_factor":1.0,"clients":-4})")),
      Error);
  EXPECT_THROW(
      parse_serve_event(parse_json(
          R"({"at":0,"event":"register","id":"w","workload":"hf",)"
          R"("size_factor":1.0,"clients":0})")),
      Error);
  // Malformed fault specs fail eagerly at parse time.
  EXPECT_THROW(
      parse_serve_event(parse_json(
          R"({"at":0,"event":"fault","spec":"explode@0:everything"})")),
      Error);
}

TEST(ServeEvent, StreamValidationNamesTheLine) {
  const std::string header = stream_header_json(7, "tiny");
  // Duplicate live register id.
  {
    std::ostringstream stream;
    stream << header << "\n"
           << event_to_json(make_register(0, "w", "hf", 0.0625, 1)) << "\n"
           << event_to_json(make_register(1, "w", "hf", 0.0625, 1)) << "\n";
    try {
      parse_event_stream(stream.str());
      FAIL() << "duplicate id accepted";
    } catch (const Error& e) {
      EXPECT_NE(std::string(e.what()).find("line 3"), std::string::npos)
          << e.what();
    }
  }
  // Out-of-order timestamps.
  {
    std::ostringstream stream;
    stream << header << "\n"
           << event_to_json(make_register(5, "w", "hf", 0.0625, 1)) << "\n"
           << event_to_json(make_depart(2, "w")) << "\n";
    EXPECT_THROW(parse_event_stream(stream.str()), Error);
  }
  // Depart of an id that is not live.
  {
    std::ostringstream stream;
    stream << header << "\n" << event_to_json(make_depart(0, "ghost")) << "\n";
    EXPECT_THROW(parse_event_stream(stream.str()), Error);
  }
  // A register id may be reused once the first instance departed.
  {
    std::ostringstream stream;
    stream << header << "\n"
           << event_to_json(make_register(0, "w", "hf", 0.0625, 1)) << "\n"
           << event_to_json(make_depart(1, "w")) << "\n"
           << event_to_json(make_register(2, "w", "hf", 0.0625, 1)) << "\n";
    EXPECT_EQ(parse_event_stream(stream.str()).size(), 3u);
  }
}

// --- policy ----------------------------------------------------------------

TEST(ServePolicy, ScopePausesAreTiered) {
  EXPECT_EQ(scope_pause(RemapScope::kFull), resilience::kRemapPauseNs);
  EXPECT_EQ(scope_pause(RemapScope::kPartial), resilience::kRemapPauseNs / 4);
  EXPECT_EQ(scope_pause(RemapScope::kPatch), resilience::kRemapPauseNs / 16);
  EXPECT_EQ(scope_pause(RemapScope::kNone), 0u);
}

TEST(ServePolicy, ForcedScopesShortCircuit) {
  ServePolicy policy;
  PolicyInputs inputs;
  inputs.imbalance_after_patch = 99.0;  // would escalate under kAuto
  policy.force = ServePolicy::Force::kPatch;
  EXPECT_EQ(decide_scope(policy, inputs).scope, RemapScope::kPatch);
  policy.force = ServePolicy::Force::kPartial;
  EXPECT_EQ(decide_scope(policy, inputs).scope, RemapScope::kPartial);
  policy.force = ServePolicy::Force::kFull;
  EXPECT_EQ(decide_scope(policy, inputs).scope, RemapScope::kFull);
}

TEST(ServePolicy, PatchWhileBalancedEscalatesWhenNot) {
  ServePolicy policy;  // patch limit 0.25, full target 0.10
  PolicyInputs inputs;
  inputs.total_iterations = 1000;
  inputs.now = 100 * kMillisecond;

  inputs.imbalance_after_patch = 0.2;
  EXPECT_EQ(decide_scope(policy, inputs).scope, RemapScope::kPatch);

  // Imbalance past the limit but the projected saving is small: the
  // excess over the full target times the run length is far below the
  // 500us full pause, so the policy settles for a partial remap.
  inputs.imbalance_after_patch = 0.4;
  EXPECT_EQ(decide_scope(policy, inputs).scope, RemapScope::kPartial);

  // A long enough projected run justifies the full pause.
  inputs.total_iterations = 10'000'000'000ull;
  EXPECT_EQ(decide_scope(policy, inputs).scope, RemapScope::kFull);

  // ... unless a full recompute just happened (hysteresis).
  inputs.any_full_yet = true;
  inputs.last_full_at = inputs.now - 1;
  EXPECT_EQ(decide_scope(policy, inputs).scope, RemapScope::kPartial);
}

TEST(ServePolicy, DriftDisqualifiesPatch) {
  ServePolicy policy;
  PolicyInputs inputs;
  inputs.imbalance_after_patch = 0.0;
  inputs.drift_exceeded = true;
  inputs.now = 100 * kMillisecond;
  const auto verdict = decide_scope(policy, inputs);
  EXPECT_NE(verdict.scope, RemapScope::kPatch);
}

// --- state -----------------------------------------------------------------

TEST(MappingState, RegisterPatchDepartKeepInvariants) {
  MappingState state(tiny_machine());
  DeltaStats stats;
  const std::size_t a =
      state.register_workload("a", "astro", 1.0 / 16.0, 2, nullptr, &stats);
  auto plan = state.build_patch(a);
  state.apply_patch(plan);
  state.check_invariants();
  EXPECT_EQ(state.num_live_workloads(), 1u);
  EXPECT_GT(state.standing_chunks(), 0u);
  EXPECT_GT(state.total_load(), 0u);

  const std::size_t b =
      state.register_workload("b", "hf", 1.0 / 16.0, 2, nullptr, &stats);
  plan = state.build_patch(b);
  // Distinct data keys never share tag bits, so b's chunks are brand-new
  // components: the plan is all new clusters, no appends.
  EXPECT_TRUE(plan.appends.empty());
  EXPECT_FALSE(plan.new_clusters.empty());
  const double predicted = state.simulate_patch(plan);
  state.apply_patch(plan);
  state.check_invariants();
  EXPECT_DOUBLE_EQ(state.imbalance(), predicted);

  const std::uint64_t load_with_b = state.total_load();
  state.depart_workload(b);
  state.check_invariants();
  EXPECT_EQ(state.num_live_workloads(), 1u);
  EXPECT_LT(state.total_load(), load_with_b);
  // Every posting and cluster member of b is gone.
  for (const auto& cluster : state.clusters()) {
    for (const auto member : cluster.members) {
      EXPECT_EQ(state.entries()[0].id, "a");
      EXPECT_LT(member, state.entries()[0].num_chunks);
    }
  }
}

TEST(MappingState, SameDataKeyInstancesShareTagRange) {
  MappingState state(tiny_machine());
  DeltaStats stats;
  const std::size_t a =
      state.register_workload("a", "astro", 1.0 / 16.0, 2, nullptr, &stats);
  const std::size_t b =
      state.register_workload("b", "astro", 1.0 / 16.0, 2, nullptr, &stats);
  EXPECT_EQ(state.entries()[a].data_key, state.entries()[b].data_key);
  // The sibling copy path must produce identical chunk counts.
  EXPECT_EQ(state.entries()[a].num_chunks, state.entries()[b].num_chunks);

  const std::size_t c =
      state.register_workload("c", "hf", 1.0 / 16.0, 2, nullptr, &stats);
  EXPECT_NE(state.entries()[c].data_key, state.entries()[a].data_key);
}

TEST(MappingState, ScaleChangesCutTarget) {
  MappingState state(tiny_machine());
  DeltaStats stats;
  const std::size_t a =
      state.register_workload("a", "astro", 1.0 / 16.0, 2, nullptr, &stats);
  state.apply_patch(state.build_patch(a));
  const std::size_t before = state.cut_target();
  state.set_requested_clients(a, 6);
  EXPECT_EQ(state.cut_target(), std::min<std::size_t>(
                                    6, state.standing_chunks()));
  EXPECT_NE(state.cut_target(), before);
  state.recut_all();
  state.check_invariants();
  EXPECT_EQ(state.clusters().size(), state.cut_target());
}

/// The entry owning global chunk `g`.
const WorkloadEntry& owner_of(const MappingState& state, std::uint32_t g) {
  for (const WorkloadEntry& e : state.entries()) {
    if (g >= e.first_chunk && g < e.first_chunk + e.num_chunks) return e;
  }
  ADD_FAILURE() << "chunk " << g << " has no owner";
  return state.entries().front();
}

/// Brute force over the scorer's contract: rows a in [lo, hi), partners
/// b < a, both live, same data key, at least one shared tag bit.
std::uint64_t brute_scored_pairs(const MappingState& state, std::uint32_t lo,
                                 std::uint32_t hi) {
  std::uint64_t pairs = 0;
  for (std::uint32_t a = lo; a < hi; ++a) {
    const WorkloadEntry& ea = owner_of(state, a);
    if (!ea.live) continue;
    for (std::uint32_t b = 0; b < a; ++b) {
      const WorkloadEntry& eb = owner_of(state, b);
      if (!eb.live || eb.name != ea.name ||
          eb.size_factor != ea.size_factor) {
        continue;
      }
      if (state.chunks()[a].tag.common_bits(state.chunks()[b].tag) > 0) {
        ++pairs;
      }
    }
  }
  return pairs;
}

TEST(MappingState, ScoredPairsMatchBruteForce) {
  // 128 chunks per instance: the rebuild's live rows outnumber the
  // scorer's serial cutoff, so the pool fans them out.
  ServeStateOptions options;
  options.tagging.max_iteration_chunks = 128;
  MappingState state(tiny_machine(), options);
  ThreadPool pool(3);
  auto check_register = [&](const std::string& id, const std::string& name) {
    DeltaStats stats;
    const std::size_t w =
        state.register_workload(id, name, 1.0 / 16.0, 2, &pool, &stats);
    const WorkloadEntry& e = state.entries()[w];
    EXPECT_EQ(stats.scored_pairs,
              brute_scored_pairs(state, e.first_chunk,
                                 e.first_chunk + e.num_chunks))
        << "register " << id;
    state.apply_patch(state.build_patch(w));
    return w;
  };
  check_register("a", "astro");
  const std::size_t b = check_register("b", "hf");
  state.depart_workload(b);  // leaves a hole in the global ids
  check_register("c", "astro");  // same data key as a: cross-instance pairs
  check_register("d", "hf");
  state.check_invariants();

  ASSERT_GE(state.standing_chunks(), 256u);
  const auto n = static_cast<std::uint32_t>(state.chunks().size());
  const std::uint64_t expected = brute_scored_pairs(state, 0, n);
  EXPECT_GT(expected, 0u);
  for (ThreadPool* p : {static_cast<ThreadPool*>(nullptr), &pool}) {
    DeltaStats stats;
    state.rebuild_all(p, &stats);
    EXPECT_EQ(stats.scored_pairs, expected);
    state.check_invariants();
  }
}

/// Every live pair b < a of the same (name, size factor) with a shared
/// tag bit, as forest candidate edges (score = shared bits), restricted
/// to rows whose data key `keep` accepts; brute force over all pairs.
template <typename Keep>
std::vector<core::ForestEdge> brute_edges(const MappingState& state,
                                          const Keep& keep) {
  std::vector<core::ForestEdge> edges;
  const auto n = static_cast<std::uint32_t>(state.chunks().size());
  for (std::uint32_t a = 0; a < n; ++a) {
    const WorkloadEntry& ea = owner_of(state, a);
    if (!ea.live || !keep(ea.data_key)) continue;
    for (std::uint32_t b = 0; b < a; ++b) {
      const WorkloadEntry& eb = owner_of(state, b);
      if (!eb.live || eb.name != ea.name ||
          eb.size_factor != ea.size_factor) {
        continue;
      }
      const std::size_t shared =
          state.chunks()[a].tag.common_bits(state.chunks()[b].tag);
      if (shared > 0) {
        edges.push_back(core::ForestEdge{static_cast<double>(shared), b, a});
      }
    }
  }
  return edges;
}

/// `from`'s forest renamed into `to`'s global chunk ids through (instance
/// id, local index) — both states hold the same live set, registered in
/// the same relative order — sorted by edge_better.
std::vector<core::ForestEdge> forest_in(const MappingState& from,
                                        const MappingState& to) {
  auto rename = [&](std::uint32_t g) {
    const WorkloadEntry& e = owner_of(from, g);
    const std::size_t w = to.find_live(e.id);
    EXPECT_NE(w, static_cast<std::size_t>(-1)) << e.id;
    return to.entries()[w].first_chunk + (g - e.first_chunk);
  };
  std::vector<core::ForestEdge> edges;
  for (const core::ForestEdge& e : from.forest()) {
    const std::uint32_t u = rename(e.u);
    const std::uint32_t v = rename(e.v);
    edges.push_back(core::ForestEdge{e.score, std::min(u, v), std::max(u, v)});
  }
  std::sort(edges.begin(), edges.end(), core::edge_better);
  return edges;
}

bool same_edges(const std::vector<core::ForestEdge>& x,
                const std::vector<core::ForestEdge>& y) {
  return std::equal(x.begin(), x.end(), y.begin(), y.end(),
                    [](const core::ForestEdge& a, const core::ForestEdge& b) {
                      return a.score == b.score && a.u == b.u && a.v == b.v;
                    });
}

TEST(MappingState, FullRemapMatchesFreshStateUnderKeyChurn) {
  // Random register / depart / scale / full sequences over two shared
  // data keys (sibling copies) and unique ones (perturbed size factors,
  // some re-registered after their key emptied).  After every full remap
  // the churned state must equal a fresh state fed the same live set and
  // rebuilt — fingerprint, forest, stats — and the stats must equal one
  // from-scratch Borůvka over every live pair.  The test keeps its own
  // model of which keys churn touched since their last from-scratch
  // hook; the remap's pipeline.serve_rescored_pairs count must be
  // exactly those keys' pairs.
  ServeStateOptions options;
  options.tagging.max_iteration_chunks = 32;
  ThreadPool pool(3);
  const bool metrics_were_enabled = obs::metrics_enabled();
  obs::set_metrics_enabled(true);
  std::uint64_t sibling_registers = 0;
  std::uint64_t emptying_departs = 0;
  std::uint64_t sibling_departs = 0;
  std::uint64_t reregisters = 0;
  std::uint64_t idle_fulls = 0;
  std::uint64_t busy_fulls = 0;
  for (const std::uint32_t seed : {1u, 2u, 3u}) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    std::mt19937 rng(seed);
    auto pick = [&](std::size_t n) {
      return static_cast<std::size_t>(rng() % n);
    };
    MappingState state(tiny_machine(), options);
    std::map<std::uint32_t, std::uint32_t> live_of_key;
    std::set<std::uint32_t> dirty;
    std::vector<std::pair<std::string, double>> emptied;  // unique keys
    std::uint32_t next_id = 0;
    std::uint32_t next_unique = 0;
    for (int step = 0; step < 40; ++step) {
      std::vector<std::size_t> live;
      for (std::size_t w = 0; w < state.entries().size(); ++w) {
        if (state.entries()[w].live) live.push_back(w);
      }
      const std::size_t roll = pick(10);
      if (live.empty() || (roll < 4 && live.size() < 6)) {
        std::string name = pick(2) == 0 ? "astro" : "hf";
        double size_factor = 1.0 / 16.0;
        const std::size_t kind = pick(4);
        if (kind == 2 && !emptied.empty()) {
          const std::size_t i = pick(emptied.size());
          std::tie(name, size_factor) = emptied[i];
          emptied.erase(emptied.begin() + static_cast<std::ptrdiff_t>(i));
          ++reregisters;
        } else if (kind >= 2) {
          name = "sar";
          size_factor = 1.0 / 16.0 * (1.0 + ++next_unique * 1e-6);
        }
        const std::size_t w = state.register_workload(
            "w" + std::to_string(next_id++), name, size_factor,
            static_cast<std::uint32_t>(1 + pick(3)), nullptr, nullptr);
        const std::uint32_t key = state.entries()[w].data_key;
        if (live_of_key[key]++ > 0) {
          dirty.insert(key);
          ++sibling_registers;
        }
        state.apply_patch(state.build_patch(w));
      } else if (roll < 7) {
        const std::size_t w = live[pick(live.size())];
        const std::uint32_t key = state.entries()[w].data_key;
        const std::string name = state.entries()[w].name;
        const double size_factor = state.entries()[w].size_factor;
        state.depart_workload(w);
        if (--live_of_key[key] == 0) {
          dirty.erase(key);
          if (name == "sar") emptied.emplace_back(name, size_factor);
          ++emptying_departs;
        } else {
          dirty.insert(key);
          ++sibling_departs;
        }
      } else if (roll < 8) {
        state.set_requested_clients(live[pick(live.size())],
                                    static_cast<std::uint32_t>(1 + pick(4)));
      } else {
        const std::uint64_t expected_rescored =
            brute_edges(state, [&](std::uint32_t key) {
              return dirty.count(key) > 0;
            }).size();
        DeltaStats stats;
        obs::Counter& counter =
            obs::Registry::global().counter("pipeline.serve_rescored_pairs");
        const std::uint64_t before = counter.value();
        state.rebuild_all(pick(2) == 0 ? nullptr : &pool, &stats);
        const std::uint64_t rescored = counter.value() - before;
        EXPECT_EQ(rescored, expected_rescored) << "step " << step;
        ++(rescored == 0 ? idle_fulls : busy_fulls);
        dirty.clear();

        // One from-scratch Borůvka over every live pair.
        std::vector<core::ForestEdge> all =
            brute_edges(state, [](std::uint32_t) { return true; });
        const std::uint64_t pairs = all.size();
        std::vector<std::uint32_t> parent(state.chunks().size());
        std::iota(parent.begin(), parent.end(), 0u);
        std::vector<core::ForestEdge> scratch_forest;
        const std::uint64_t rounds =
            core::hook_forest(std::move(all), parent, scratch_forest);
        std::sort(scratch_forest.begin(), scratch_forest.end(),
                  core::edge_better);
        EXPECT_EQ(stats.scored_pairs, pairs) << "step " << step;
        EXPECT_EQ(stats.forest_hooks, scratch_forest.size())
            << "step " << step;
        EXPECT_EQ(stats.rounds, rounds) << "step " << step;
        EXPECT_TRUE(same_edges(forest_in(state, state), scratch_forest))
            << "step " << step;

        // A fresh state fed the live set, in the same relative order.
        MappingState fresh(tiny_machine(), options);
        for (const std::size_t w : live) {
          const WorkloadEntry& e = state.entries()[w];
          fresh.register_workload(e.id, e.name, e.size_factor,
                                  e.requested_clients, nullptr, nullptr);
        }
        DeltaStats fresh_stats;
        fresh.rebuild_all(nullptr, &fresh_stats);
        fresh.check_invariants();
        EXPECT_EQ(state.fingerprint(), fresh.fingerprint()) << "step " << step;
        EXPECT_TRUE(same_edges(forest_in(state, fresh),
                               forest_in(fresh, fresh)))
            << "step " << step;
        EXPECT_EQ(stats.scored_pairs, fresh_stats.scored_pairs);
        EXPECT_EQ(stats.forest_hooks, fresh_stats.forest_hooks);
        EXPECT_EQ(stats.rounds, fresh_stats.rounds);
      }
      state.check_invariants();
    }
  }
  obs::set_metrics_enabled(metrics_were_enabled);
  // Every rule was exercised.
  EXPECT_GT(sibling_registers, 0u);
  EXPECT_GT(emptying_departs, 0u);
  EXPECT_GT(sibling_departs, 0u);
  EXPECT_GT(reregisters, 0u);
  EXPECT_GT(idle_fulls, 0u);
  EXPECT_GT(busy_fulls, 0u);
}

TEST(MappingState, LeftoverMergeMatchesNaiveReference) {
  // madbench2's chunks fall into many sharing-free components, more than
  // the three clients asked for, so the patch must merge leftovers.
  ServeStateOptions options;
  options.tagging.max_iteration_chunks = 64;
  MappingState state(tiny_machine(), options);
  DeltaStats stats;
  const std::uint32_t clients = 3;
  const std::size_t w = state.register_workload("a", "madbench2", 1.0 / 16.0,
                                                clients, nullptr, &stats);
  const PatchPlan plan = state.build_patch(w);

  // Reference: connected components of the shared-bit graph, in order of
  // their smallest member...
  const auto& chunks = state.chunks();
  const auto n = static_cast<std::uint32_t>(chunks.size());
  std::vector<std::uint32_t> parent(n);
  std::iota(parent.begin(), parent.end(), 0u);
  for (std::uint32_t a = 0; a < n; ++a) {
    for (std::uint32_t b = 0; b < a; ++b) {
      if (chunks[a].tag.common_bits(chunks[b].tag) > 0) {
        core::uf_union(parent, a, b);
      }
    }
  }
  struct Comp {
    std::vector<std::uint32_t> members;
    std::uint64_t iterations = 0;
    std::uint64_t order_key = UINT64_MAX;
  };
  std::vector<Comp> comps;
  std::vector<std::size_t> slot(n);
  for (std::uint32_t g = 0; g < n; ++g) {
    const std::uint32_t root = core::uf_find(parent, g);
    if (root == g) {
      slot[g] = comps.size();
      comps.emplace_back();
    }
    Comp& c = comps[slot[root]];
    c.members.push_back(g);
    c.iterations += chunks[g].iterations;
    c.order_key =
        std::min(c.order_key, core::Cluster::make_order_key(chunks[g]));
  }
  ASSERT_GT(comps.size(), clients) << "the leftover merge must run";

  // ...then merged rank-adjacent (order key, then smallest member),
  // smallest combined total first, leftmost on ties; a merged component
  // keeps the place of its left partner.
  std::vector<std::size_t> rank(comps.size());
  std::iota(rank.begin(), rank.end(), std::size_t{0});
  std::sort(rank.begin(), rank.end(), [&](std::size_t x, std::size_t y) {
    if (comps[x].order_key != comps[y].order_key) {
      return comps[x].order_key < comps[y].order_key;
    }
    return comps[x].members.front() < comps[y].members.front();
  });
  while (rank.size() > clients) {
    std::size_t pos = 0;
    for (std::size_t p = 1; p + 1 < rank.size(); ++p) {
      if (comps[rank[p]].iterations + comps[rank[p + 1]].iterations <
          comps[rank[pos]].iterations + comps[rank[pos + 1]].iterations) {
        pos = p;
      }
    }
    Comp& into = comps[rank[pos]];
    Comp& from = comps[rank[pos + 1]];
    into.members.insert(into.members.end(), from.members.begin(),
                        from.members.end());
    std::sort(into.members.begin(), into.members.end());
    into.iterations += from.iterations;
    from.members.clear();
    rank.erase(rank.begin() + static_cast<std::ptrdiff_t>(pos) + 1);
  }
  comps.erase(std::remove_if(comps.begin(), comps.end(),
                             [](const Comp& c) { return c.members.empty(); }),
              comps.end());

  EXPECT_TRUE(plan.appends.empty());
  ASSERT_EQ(plan.new_clusters.size(), comps.size());
  for (std::size_t i = 0; i < comps.size(); ++i) {
    EXPECT_EQ(plan.new_clusters[i].members, comps[i].members)
        << "cluster " << i;
    EXPECT_EQ(plan.new_clusters[i].iterations, comps[i].iterations);
    EXPECT_EQ(plan.new_clusters[i].client, kUnplaced);
  }
}

TEST(MappingState, FailStopKillsClientAndOrphansMove) {
  MappingState state(tiny_machine());
  DeltaStats stats;
  const std::size_t a =
      state.register_workload("a", "astro", 1.0 / 16.0, 4, nullptr, &stats);
  state.apply_patch(state.build_patch(a));
  const std::size_t alive_before = state.num_alive_clients();

  EXPECT_FALSE(state.apply_faults(resilience::parse_fault_spec("fail@0:l1.0"))
                   .has_value());
  EXPECT_EQ(state.num_alive_clients(), alive_before - 1);
  EXPECT_FALSE(state.client_alive()[0]);

  const std::size_t moved = state.replace_orphans();
  state.check_invariants();
  EXPECT_EQ(state.client_load()[0], 0u);
  for (const auto& cluster : state.clusters()) {
    EXPECT_NE(cluster.client, 0u);
  }
  (void)moved;

  // Recovery squashes out of the effective fault state.
  EXPECT_FALSE(
      state.apply_faults(resilience::parse_fault_spec("recover@1:l1.0"))
          .has_value());
  EXPECT_EQ(state.num_alive_clients(), alive_before);
  const auto effective = state.effective_faults();
  for (const auto& event : effective.events) {
    EXPECT_NE(event.kind, resilience::FaultKind::kFailStop);
  }
}

TEST(MappingState, EffectiveFaultsSquashToLastState) {
  MappingState state(tiny_machine());
  EXPECT_FALSE(state
                   .apply_faults(resilience::parse_fault_spec(
                       "transient@0:disk=0.5; fail@1:l2.0"))
                   .has_value());
  EXPECT_FALSE(state
                   .apply_faults(resilience::parse_fault_spec(
                       "transient@2:disk=0.01; recover@3:l2.0"))
                   .has_value());
  const auto effective = state.effective_faults();
  double disk_rate = -1;
  for (const auto& event : effective.events) {
    EXPECT_EQ(event.at, 0u);  // everything re-stamped at t=0
    EXPECT_NE(event.kind, resilience::FaultKind::kFailStop);
    if (event.kind == resilience::FaultKind::kTransient) {
      disk_rate = event.disk_error_rate;
    }
  }
  EXPECT_DOUBLE_EQ(disk_rate, 0.01);  // later transient replaces earlier
}

TEST(MappingService, RejectedFaultChangesNothing) {
  MappingService service(tiny_options());
  service.process(make_register(0, "a", "astro", 1.0 / 16.0, 4));
  service.process(make_fault(1 * kMillisecond, "transient@0:disk=0.25"));
  const std::string fingerprint = service.state().fingerprint();
  const std::string effective =
      service.state().effective_faults().to_string();
  // Every client dead, a fail-stop of an absent client, a degrade of an
  // absent I/O node, a valid event batched with an invalid one: rejected
  // before anything is merged, and journaled as such.
  for (const char* spec :
       {"fail@2ms:l1", "fail@2ms:l1.8", "degrade@2ms:l2.4:lat=2",
        "fail@2ms:l1.0; fail@2ms:l1.9"}) {
    SCOPED_TRACE(spec);
    const ServeDecision decision =
        service.process(make_fault(2 * kMillisecond, spec));
    EXPECT_EQ(decision.scope, RemapScope::kNone);
    EXPECT_EQ(decision.reason.rfind("rejected: ", 0), 0u) << decision.reason;
    EXPECT_EQ(decision.pause, 0u);
    EXPECT_EQ(service.state().fingerprint(), fingerprint);
    EXPECT_EQ(service.state().effective_faults().to_string(), effective);
  }
  // A malformed spec is not a rejection but a hard error.
  EXPECT_THROW(service.process(make_fault(2 * kMillisecond, "fail@2ms:l9")),
               Error);
  EXPECT_EQ(service.decisions().size(), 6u);
  // A recover of an absent client heals nothing and is not merged: the
  // history stays replayable, so a later fault still applies.
  service.process(make_fault(3 * kMillisecond, "recover@3ms:l1.9"));
  EXPECT_EQ(service.state().fingerprint(), fingerprint);
  service.process(make_fault(4 * kMillisecond, "fail@4ms:l1.1"));
  EXPECT_FALSE(service.state().client_alive()[1]);
  service.process(make_register(5 * kMillisecond, "b", "hf", 1.0 / 16.0, 2));
  service.state().check_invariants();
  EXPECT_NE(service.state().find_live("b"), static_cast<std::size_t>(-1));
}

// --- service oracles -------------------------------------------------------

std::string end_fingerprint(const std::vector<ServeEvent>& events,
                            std::size_t threads,
                            ServePolicy::Force force,
                            std::vector<ServeDecision>* decisions = nullptr) {
  ServiceOptions options = tiny_options();
  options.num_threads = threads;
  options.policy.force = force;
  MappingService service(options);
  for (const auto& event : events) service.process(event);
  service.state().check_invariants();
  if (decisions) *decisions = service.decisions();
  return service.state().fingerprint();
}

TEST(MappingService, EndStateIsThreadCountInvariant) {
  const auto events = churn_events();
  std::vector<ServeDecision> d1;
  std::vector<ServeDecision> d2;
  std::vector<ServeDecision> d4;
  const std::string f1 =
      end_fingerprint(events, 1, ServePolicy::Force::kAuto, &d1);
  const std::string f2 =
      end_fingerprint(events, 2, ServePolicy::Force::kAuto, &d2);
  const std::string f4 =
      end_fingerprint(events, 4, ServePolicy::Force::kAuto, &d4);
  EXPECT_EQ(f1, f2);
  EXPECT_EQ(f1, f4);
  ASSERT_EQ(d1.size(), d4.size());
  for (std::size_t i = 0; i < d1.size(); ++i) {
    EXPECT_EQ(d1[i].scope, d4[i].scope) << "event " << i;
    EXPECT_EQ(d1[i].reason, d4[i].reason) << "event " << i;
  }
}

TEST(MappingService, ForcedFullMatchesFromScratchAfterChurn) {
  // History: register a,b,c; depart b; register d — then one forced full.
  auto history = churn_events();
  ServeEvent full_probe = make_register(
      5 * kMillisecond, "probe", "hf", 1.0 / 16.0, 2);
  history.push_back(full_probe);

  ServiceOptions options = tiny_options();
  MappingService churned(options);
  for (const auto& event : history) churned.process(event);
  // Force the final full recompute directly.
  ServiceOptions forced = tiny_options();
  forced.policy.force = ServePolicy::Force::kFull;
  MappingService churned_full(forced);
  for (const auto& event : history) churned_full.process(event);

  // From scratch: only the live set, registered fresh, forced full.
  std::vector<ServeEvent> fresh;
  fresh.push_back(make_register(0, "a", "astro", 1.0 / 16.0, 2));
  fresh.push_back(make_register(1, "c", "astro", 1.0 / 16.0, 2));
  fresh.push_back(make_register(2, "d", "sar", 1.0 / 16.0, 2));
  fresh.push_back(make_register(3, "probe", "hf", 1.0 / 16.0, 2));
  MappingService scratch(tiny_options());
  for (const auto& event : fresh) scratch.process(event);

  const std::string churned_fp = churned_full.state().fingerprint();
  ServiceOptions scratch_full = tiny_options();
  scratch_full.policy.force = ServePolicy::Force::kFull;
  MappingService oracle(scratch_full);
  for (const auto& event : fresh) oracle.process(event);
  EXPECT_EQ(churned_fp, oracle.state().fingerprint());
  // And the incremental (auto) churned state covers the same chunks.
  EXPECT_EQ(churned.state().standing_chunks(),
            oracle.state().standing_chunks());
}

TEST(MappingService, JournalReplaysToIdenticalState) {
  const std::string journal_path =
      testing::TempDir() + "/serve_journal_test.jsonl";
  ServiceOptions options = tiny_options();
  options.journal_path = journal_path;
  std::string direct_fp;
  {
    MappingService service(options);
    for (const auto& event : churn_events()) service.process(event);
    direct_fp = service.state().fingerprint();
  }
  // The journal (with decision decoration) replays as an event stream.
  const auto replayed = load_event_stream(journal_path);
  ASSERT_EQ(replayed.size(), churn_events().size());
  MappingService replay(tiny_options());
  for (const auto& event : replayed) replay.process(event);
  EXPECT_EQ(replay.state().fingerprint(), direct_fp);
  std::remove(journal_path.c_str());
}

TEST(MappingService, PausesAndCountersAccumulate) {
  ServiceOptions options = tiny_options();
  MappingService service(options);
  for (const auto& event : churn_events()) service.process(event);
  EXPECT_EQ(service.decisions().size(), churn_events().size());
  Nanoseconds sum = 0;
  DeltaStats work;
  for (const auto& d : service.decisions()) {
    sum += d.pause;
    work += d.delta;
  }
  EXPECT_EQ(service.total_pause(), sum);
  EXPECT_GT(work.scored_pairs + work.forest_hooks, 0u);

  const obs::RunRecord record = service.snapshot();
  bool saw_workloads = false;
  bool saw_clients = false;
  bool saw_decisions = false;
  bool saw_totals = false;
  for (const auto& [name, table] : record.tables) {
    saw_workloads |= name == "serve_workloads";
    saw_clients |= name == "serve_clients";
    saw_decisions |= name == "serve_decisions";
    saw_totals |= name == "serve_totals";
  }
  EXPECT_TRUE(saw_workloads);
  EXPECT_TRUE(saw_clients);
  EXPECT_TRUE(saw_decisions);
  EXPECT_TRUE(saw_totals);
}

TEST(MappingService, UnknownDepartIdThrows) {
  MappingService service(tiny_options());
  EXPECT_THROW(service.process(make_depart(0, "ghost")), Error);
}

}  // namespace
}  // namespace mlsc::serve
