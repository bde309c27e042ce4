// Tests for the fault-injection and resilience subsystem: fault-spec
// parsing, the retry policy's capped backoff, the injector's
// deterministic state machine, degraded-mode replay accounting
// (retry/failover stall components, timeout budget), the miss-rate drift
// trigger, and remap-on-failure work redistribution.
#include <gtest/gtest.h>

#include <set>

#include "core/pipeline.h"
#include "resilience/fault.h"
#include "resilience/remap.h"
#include "resilience/retry.h"
#include "serve/state.h"
#include "sim/engine.h"
#include "sim/experiment.h"
#include "support/check.h"
#include "support/rng.h"
#include "workloads/registry.h"

namespace mlsc::resilience {
namespace {

sim::MachineConfig tiny_machine() {
  sim::MachineConfig config;
  config.clients = 4;
  config.io_nodes = 2;
  config.storage_nodes = 1;
  config.client_cache_bytes = 8 * 64 * kKiB;
  config.io_cache_bytes = 8 * 64 * kKiB;
  config.storage_cache_bytes = 8 * 64 * kKiB;
  return config;
}

TEST(RetryPolicy, BackoffIsCappedExponential) {
  RetryPolicy policy;
  policy.initial_backoff_ns = 100;
  policy.multiplier = 2.0;
  policy.max_backoff_ns = 500;
  EXPECT_EQ(policy.backoff(0), 0u);  // first attempt has no backoff
  EXPECT_EQ(policy.backoff(1), 100u);
  EXPECT_EQ(policy.backoff(2), 200u);
  EXPECT_EQ(policy.backoff(3), 400u);
  EXPECT_EQ(policy.backoff(4), 500u);  // capped, not 800
  EXPECT_EQ(policy.backoff(40), 500u);  // stays capped far out
}

TEST(FaultSpec, ParsesEveryEventKind) {
  const auto schedule = parse_fault_spec(
      "transient@0:disk=0.01,net=0.001; fail@5ms:l2.0; "
      "degrade@8ms:l3:lat=4,cap=2; stall@10ms:2ms; recover@20ms:l2.0; "
      "seed=42");
  EXPECT_EQ(schedule.seed, 42u);
  ASSERT_EQ(schedule.events.size(), 5u);
  // Events are kept sorted by timestamp.
  EXPECT_EQ(schedule.events[0].kind, FaultKind::kTransient);
  EXPECT_DOUBLE_EQ(schedule.events[0].disk_error_rate, 0.01);
  EXPECT_DOUBLE_EQ(schedule.events[0].net_error_rate, 0.001);
  EXPECT_EQ(schedule.events[1].kind, FaultKind::kFailStop);
  EXPECT_EQ(schedule.events[1].at, 5 * kMillisecond);
  EXPECT_EQ(schedule.events[1].level, 2u);
  EXPECT_EQ(schedule.events[1].node_index, 0);
  EXPECT_EQ(schedule.events[2].kind, FaultKind::kDegrade);
  EXPECT_DOUBLE_EQ(schedule.events[2].latency_factor, 4.0);
  EXPECT_DOUBLE_EQ(schedule.events[2].capacity_divisor, 2.0);
  EXPECT_EQ(schedule.events[2].node_index, -1);  // whole level
  EXPECT_EQ(schedule.events[3].kind, FaultKind::kStall);
  EXPECT_EQ(schedule.events[3].duration, 2 * kMillisecond);
  EXPECT_EQ(schedule.events[4].kind, FaultKind::kRecover);
}

TEST(FaultSpec, RejectsMalformedInput) {
  EXPECT_THROW(parse_fault_spec("explode@5ms:l2.0"), Error);
  EXPECT_THROW(parse_fault_spec("fail@5ms"), Error);       // no target
  EXPECT_THROW(parse_fault_spec("fail@5ms:l9.0"), Error);  // bad level
  EXPECT_THROW(parse_fault_spec("fail@xyz:l2.0"), Error);  // bad time
  EXPECT_THROW(parse_fault_spec("transient@0:disk=oops"), Error);
  EXPECT_THROW(parse_fault_spec("seed=notanumber"), Error);
}

TEST(FaultSpec, TargetsAndSeedsAreExactIntegers) {
  // None of these may wrap, truncate or saturate into another level, node
  // or seed.
  for (const char* spec :
       {"fail@0:l4294967298.0", "fail@0:l2.1.5", "fail@0:l2.1e0",
        "fail@0:l2.+1", "fail@0:l2.", "fail@0:l2.0x1", "fail@0:l+2.0",
        "seed=-5", "seed=1e30", "seed=+5", "seed=7.0",
        "seed=", "seed=18446744073709551616", "fail:l2.0"}) {
    EXPECT_THROW(parse_fault_spec(spec), Error) << spec;
  }
  try {
    parse_fault_spec("fail@0:l2.1000000000000");
    ADD_FAILURE() << "an out-of-range node index parsed";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("out of range"), std::string::npos)
        << e.what();
  }
  // The extremes of each field still parse.
  EXPECT_EQ(parse_fault_spec("seed=18446744073709551615").seed, UINT64_MAX);
  const auto schedule = parse_fault_spec("fail@0:l3.2147483647; seed=0");
  ASSERT_EQ(schedule.events.size(), 1u);
  EXPECT_EQ(schedule.events[0].level, 3u);
  EXPECT_EQ(schedule.events[0].node_index, INT32_MAX);
  EXPECT_EQ(schedule.seed, 0u);
}

TEST(FaultSpec, TimesStayBelow2To63Nanoseconds) {
  // The largest double below 2^63 ns still parses, exactly; 2^63 ns and
  // anything past it is out of range rather than saturated.
  const auto schedule = parse_fault_spec("stall@0:9223372036854774784");
  ASSERT_EQ(schedule.events.size(), 1u);
  EXPECT_EQ(schedule.events[0].duration, Nanoseconds{9223372036854774784u});
  for (const char* spec :
       {"stall@0:9223372036854775808", "stall@0:9223372036.854775808s",
        "fail@1e30ms:l2.0", "stall@0:1e30s", "stall@0:1e300s"}) {
    try {
      parse_fault_spec(spec);
      ADD_FAILURE() << spec << " parsed";
    } catch (const Error& e) {
      EXPECT_NE(std::string(e.what()).find("out of range"), std::string::npos)
          << e.what();
    }
  }
}

FaultEvent node_of(std::uint32_t level, std::int32_t index) {
  FaultEvent probe;
  probe.level = level;
  probe.node_index = index;
  return probe;
}

topology::NodeId node_id(const topology::HierarchyTree& tree,
                         std::uint32_t level, std::int32_t index) {
  return resolve_fault_targets(tree, node_of(level, index))[0];
}

TEST(FaultSchedule, UnrecoveredFailStopsHonorRecovery) {
  const auto tree = tiny_machine().build_tree();
  const auto end = fault_end_state(
      parse_fault_spec("fail@1ms:l2.0; fail@2ms:l2.1; recover@5ms:l2.0"),
      tree);
  EXPECT_FALSE(end.failed(node_id(tree, 2, 0)));
  EXPECT_TRUE(end.failed(node_id(tree, 2, 1)));
}

TEST(FaultTargets, ResolveByLevelAndIndex) {
  const auto tree = tiny_machine().build_tree();
  FaultEvent event;
  event.level = 2;  // I/O nodes
  event.node_index = -1;
  EXPECT_EQ(resolve_fault_targets(tree, event).size(), 2u);
  event.node_index = 1;
  const auto one = resolve_fault_targets(tree, event);
  ASSERT_EQ(one.size(), 1u);
  EXPECT_EQ(tree.node(one[0]).kind, topology::NodeKind::kIo);
  event.node_index = 7;
  EXPECT_THROW(resolve_fault_targets(tree, event), Error);
  event.level = 9;
  EXPECT_THROW(resolve_fault_targets(tree, event), Error);
}

TEST(FaultInjector, AppliesEventsInTimestampOrder) {
  const auto tree = tiny_machine().build_tree();
  auto schedule = parse_fault_spec(
      "degrade@1ms:l2.0:lat=4,cap=2; transient@2ms:disk=0.5; "
      "recover@3ms:l2.0");
  FaultInjector injector(std::move(schedule), RetryPolicy{}, tree);
  FaultEvent probe;
  probe.level = 2;
  probe.node_index = 0;
  const auto target = resolve_fault_targets(tree, probe)[0];

  injector.advance_to(0, nullptr);
  EXPECT_EQ(injector.events_applied(), 0u);
  EXPECT_DOUBLE_EQ(injector.latency_factor(target), 1.0);

  injector.advance_to(1 * kMillisecond, nullptr);
  EXPECT_EQ(injector.events_applied(), 1u);
  EXPECT_DOUBLE_EQ(injector.latency_factor(target), 4.0);
  EXPECT_DOUBLE_EQ(injector.disk_error_rate(), 0.0);

  injector.advance_to(10 * kMillisecond, nullptr);  // applies the rest
  EXPECT_EQ(injector.events_applied(), 3u);
  EXPECT_DOUBLE_EQ(injector.latency_factor(target), 1.0);  // recovered
  EXPECT_DOUBLE_EQ(injector.disk_error_rate(), 0.5);
}

TEST(FaultInjector, StallChargedOncePerClient) {
  const auto tree = tiny_machine().build_tree();
  auto schedule = parse_fault_spec("stall@1ms:2ms");
  FaultInjector injector(std::move(schedule), RetryPolicy{}, tree);
  injector.advance_to(1 * kMillisecond, nullptr);
  EXPECT_EQ(injector.take_pending_stall(0), 2 * kMillisecond);
  EXPECT_EQ(injector.take_pending_stall(0), 0u);  // already charged
  EXPECT_EQ(injector.take_pending_stall(3), 2 * kMillisecond);
}

TEST(FaultInjector, ErrorDrawsAreOrderIndependent) {
  const auto tree = tiny_machine().build_tree();
  auto schedule = parse_fault_spec("seed=11");
  FaultInjector injector(std::move(schedule), RetryPolicy{}, tree);
  // The draw is a pure function of (client, op, attempt): repeating the
  // same query gives the same verdict regardless of everything drawn in
  // between, and the empirical rate tracks the requested one.
  const bool first = injector.draw_error(1, 2, 3, 0.5);
  int errors = 0;
  const int kDraws = 2000;
  for (int op = 0; op < kDraws; ++op) {
    errors += injector.draw_error(0, op, 0, 0.3) ? 1 : 0;
  }
  EXPECT_EQ(injector.draw_error(1, 2, 3, 0.5), first);
  EXPECT_NEAR(errors / static_cast<double>(kDraws), 0.3, 0.05);
  EXPECT_FALSE(injector.draw_error(1, 2, 3, 0.0));
  EXPECT_TRUE(injector.draw_error(1, 2, 3, 1.0));
}

sim::ExperimentResult run_faulted(const std::string& spec,
                                  bool remap = false,
                                  RetryPolicy retry = RetryPolicy{}) {
  const auto workload = workloads::make_workload("astro", 1.0 / 16.0);
  sim::ResilienceSpec resilience;
  resilience.schedule = parse_fault_spec(spec);
  resilience.retry = retry;
  resilience.remap_on_failure = remap;
  return sim::run_experiment(workload, core::PipelineOptions::inter(),
                             tiny_machine(), &resilience);
}

TEST(DegradedReplay, StallComponentsStillSumToIoTotal) {
  const auto r = run_faulted("fail@1ms:l2.0; transient@0:disk=0.05; seed=3");
  const auto& e = r.engine;
  EXPECT_GT(e.faults_applied, 0u);
  EXPECT_GT(e.time_failover, 0u);
  EXPECT_EQ(e.time_client_cache + e.time_shared_cache + e.time_peer_cache +
                e.time_disk + e.time_retry + e.time_failover,
            e.io_time_total);
}

TEST(DegradedReplay, TransientErrorsChargeRetries) {
  const auto clean = run_faulted("transient@0:disk=0.0; seed=3");
  const auto flaky = run_faulted("transient@0:disk=0.2; seed=3");
  EXPECT_EQ(clean.engine.transient_errors, 0u);
  EXPECT_EQ(clean.engine.time_retry, 0u);
  EXPECT_GT(flaky.engine.transient_errors, 0u);
  EXPECT_GT(flaky.engine.retries, 0u);
  EXPECT_GT(flaky.engine.time_retry, 0u);
}

TEST(DegradedReplay, TimeoutBudgetCapsPerAccessRetrying) {
  // With a certain error rate and a tiny timeout, every disk access hits
  // the budget: the engine charges exactly the timeout per access.
  RetryPolicy retry;
  retry.max_attempts = 8;
  retry.initial_backoff_ns = 40 * kMicrosecond;
  retry.access_timeout_ns = 100 * kMicrosecond;
  const auto r = run_faulted("transient@0:disk=1.0; seed=3", false, retry);
  const auto& e = r.engine;
  EXPECT_GT(e.retry_timeouts, 0u);
  EXPECT_EQ(e.time_retry, e.retry_timeouts * retry.access_timeout_ns);
}

TEST(DegradedReplay, FailStopLosesCacheContents) {
  // The failed node is skipped and its contents are gone: disk traffic
  // can only grow, and failover detections are counted and charged.
  const auto healthy = run_faulted("transient@0:disk=0; seed=1");
  const auto failed = run_faulted("fail@0:l2.0; seed=1");
  EXPECT_GT(failed.engine.failovers, 0u);
  EXPECT_GT(failed.engine.time_failover, 0u);
  EXPECT_GE(failed.engine.disk_requests, healthy.engine.disk_requests);
}

TEST(Remap, DriftFiresOnlyAboveTheThreshold) {
  cache::CacheStats baseline;
  baseline.accesses = 100;
  cache::CacheStats observed = baseline;
  // A rise of exactly kMissRateDrift (15 of 100 accesses from none) does
  // not fire; one more miss does.
  observed.misses = 15;
  ASSERT_EQ(observed.miss_rate() - baseline.miss_rate(), kMissRateDrift);
  EXPECT_FALSE(drift_exceeded(baseline, observed));
  observed.misses = 16;
  EXPECT_TRUE(drift_exceeded(baseline, observed));
  // A falling miss rate never fires.
  baseline.misses = 90;
  EXPECT_FALSE(drift_exceeded(baseline, observed));
}

TEST(Remap, DecisionTriggersOnFailStopOnly) {
  const auto tree = tiny_machine().build_tree();
  EXPECT_FALSE(
      decide_remap(parse_fault_spec("degrade@1ms:l2.0:lat=2"), tree)
          .triggered);
  const auto decision = decide_remap(parse_fault_spec("fail@3ms:l2.1"), tree);
  EXPECT_TRUE(decision.triggered);
  EXPECT_EQ(decision.at, 3 * kMillisecond);
  EXPECT_NE(decision.reason.find("level 2"), std::string::npos);
}

/// The healthy inter-processor mapping of `workload` on `config`.
core::MappingResult healthy_mapping(const workloads::Workload& workload,
                                    const sim::MachineConfig& config) {
  const auto tree = config.build_tree();
  const core::DataSpace space(workload.program, config.chunk_size_bytes);
  return core::MappingPipeline(tree, core::PipelineOptions::inter())
      .run_all(workload.program, space);
}

/// Ranks of the clients below the level-2 node `index`.
std::set<std::size_t> clients_below_l2(const topology::HierarchyTree& tree,
                                       std::int32_t index) {
  FaultEvent probe;
  probe.level = 2;
  probe.node_index = index;
  std::set<std::size_t> ranks;
  for (const topology::NodeId child :
       tree.node(resolve_fault_targets(tree, probe)[0]).children) {
    ranks.insert(tree.client_rank(child));
  }
  return ranks;
}

bool same_item(const core::WorkItem& a, const core::WorkItem& b) {
  return a.nest == b.nest && a.chunk == b.chunk &&
         a.iterations == b.iterations && a.ranges == b.ranges;
}

TEST(Remap, RecoveredNodesKeepTheirClientsWork) {
  // l2.1 fails and recovers, so only the clients below l2.0 lose work.
  const auto workload = workloads::make_workload("astro", 1.0 / 16.0);
  const auto config = tiny_machine();
  const auto tree = config.build_tree();
  auto mapping = healthy_mapping(workload, config);
  remap_mapping(mapping, tree,
                parse_fault_spec(
                    "fail@1ms:l2.0; fail@2ms:l2.1; recover@5ms:l2.1"),
                core::PipelineOptions::inter(), workload.program);
  const auto dead = clients_below_l2(tree, 0);
  for (std::size_t c = 0; c < mapping.client_work.size(); ++c) {
    EXPECT_EQ(mapping.client_work[c].empty(), dead.count(c) != 0)
        << "client " << c;
  }
}

TEST(Remap, RedistributesWorkOffAffectedClients) {
  const auto workload = workloads::make_workload("astro", 1.0 / 16.0);
  const auto config = tiny_machine();
  const auto tree = config.build_tree();
  const auto healthy = healthy_mapping(workload, config);
  auto mapping = healthy;
  remap_mapping(mapping, tree, parse_fault_spec("fail@1ms:l2.0"),
                core::PipelineOptions::inter(), workload.program);

  // Clients under the failed I/O node end up with no work; the others
  // keep their own items, in order, as a prefix and carry everything,
  // and no iteration is lost.
  const auto affected = clients_below_l2(tree, 0);
  ASSERT_FALSE(affected.empty());
  std::size_t moved_out = 0;
  std::size_t moved_in = 0;
  for (std::size_t c = 0; c < mapping.client_work.size(); ++c) {
    const auto& before = healthy.client_work[c];
    const auto& after = mapping.client_work[c];
    if (affected.count(c) != 0) {
      EXPECT_TRUE(after.empty()) << "client " << c;
      moved_out += before.size();
      continue;
    }
    ASSERT_GE(after.size(), before.size()) << "client " << c;
    for (std::size_t i = 0; i < before.size(); ++i) {
      EXPECT_TRUE(same_item(after[i], before[i]))
          << "client " << c << " item " << i;
    }
    moved_in += after.size() - before.size();
  }
  EXPECT_GT(moved_out, 0u);
  EXPECT_EQ(moved_in, moved_out);
  EXPECT_EQ(mapping.total_iterations(), workload.program.total_iterations());
  mapping.validate_partition(workload.program);
}

TEST(Remap, WholeLevelFailureKeepsMappingUsable) {
  // Every client affected: redistribution has nowhere to go and must
  // leave the mapping as it was rather than emptying it.
  const auto workload = workloads::make_workload("astro", 1.0 / 16.0);
  const auto config = tiny_machine();
  const auto tree = config.build_tree();
  const auto healthy = healthy_mapping(workload, config);
  auto mapping = healthy;
  remap_mapping(mapping, tree, parse_fault_spec("fail@1ms:l2"),
                core::PipelineOptions::inter(), workload.program);
  for (std::size_t c = 0; c < mapping.client_work.size(); ++c) {
    ASSERT_EQ(mapping.client_work[c].size(), healthy.client_work[c].size());
    for (std::size_t i = 0; i < healthy.client_work[c].size(); ++i) {
      EXPECT_TRUE(same_item(mapping.client_work[c][i],
                            healthy.client_work[c][i]));
    }
  }
}

TEST(Remap, DependentAppsReplayToCompletion) {
  // e_elem and apsi are the registry apps with sync edges: the moved
  // placement gets its own edges from the pipeline's sync stage, so the
  // replay finishes instead of waiting on a cycle.
  const auto config = tiny_machine();
  const auto tree = config.build_tree();
  const auto affected = clients_below_l2(tree, 0);
  for (const char* app : {"e_elem", "apsi"}) {
    SCOPED_TRACE(app);
    const auto workload = workloads::make_workload(app, 1.0 / 16.0);
    auto mapping = healthy_mapping(workload, config);
    ASSERT_FALSE(mapping.sync_edges.empty());
    remap_mapping(mapping, tree, parse_fault_spec("fail@2ms:l2.0"),
                  core::PipelineOptions::inter(), workload.program);
    for (const std::size_t c : affected) {
      EXPECT_TRUE(mapping.client_work[c].empty()) << "client " << c;
    }
    mapping.validate_partition(workload.program);
    EXPECT_FALSE(mapping.sync_edges.empty());
    for (const core::SyncEdge& edge : mapping.sync_edges) {
      ASSERT_LT(edge.producer_item,
                mapping.client_work[edge.producer_client].size());
      ASSERT_LT(edge.consumer_item,
                mapping.client_work[edge.consumer_client].size());
    }

    sim::ResilienceSpec resilience;
    resilience.schedule = parse_fault_spec("fail@2ms:l2.0; seed=5");
    resilience.remap_on_failure = true;
    const auto run = sim::run_experiment(
        workload, core::PipelineOptions::inter(), config, &resilience);
    EXPECT_TRUE(run.remapped);
    EXPECT_GT(run.sync_edges, 0u);
  }
}

TEST(Remap, ExperimentReportsRemapOutcome) {
  const auto no_remap = run_faulted("fail@1ms:l2.0; seed=5", false);
  const auto remapped = run_faulted("fail@1ms:l2.0; seed=5", true);
  EXPECT_FALSE(no_remap.remapped);
  EXPECT_TRUE(remapped.remapped);
  EXPECT_NE(remapped.remap_reason.find("fail-stop"), std::string::npos);
  EXPECT_GT(remapped.remap_pause, 0u);
  EXPECT_GT(remapped.engine.fault_stall_total, 0u);
  // The remap steers work off the degraded path, so failover detections
  // must drop.
  EXPECT_LT(remapped.engine.failovers, no_remap.engine.failovers);
}

// --- one reading of a schedule ---------------------------------------------
// Every consumer of a fault schedule — the service's alive set and drift
// replay schedule, the remap's affected clients, the remap trigger — must
// agree with the injector's end state.

TEST(FaultEndState, WholeLevelFailThenNodeRecover) {
  // Only client 0 comes back; the other three stay failed.
  const auto config = tiny_machine();
  const auto tree = config.build_tree();
  const auto schedule = parse_fault_spec("fail@2ms:l1; recover@3ms:l1.0");
  serve::MappingState state(config);
  EXPECT_FALSE(state.apply_faults(schedule).has_value());
  EXPECT_EQ(state.client_alive(),
            (std::vector<bool>{true, false, false, false}));
  // The remap moves the three failed clients' work onto client 0.
  const auto workload = workloads::make_workload("astro", 1.0 / 16.0);
  auto mapping = healthy_mapping(workload, config);
  remap_mapping(mapping, tree, schedule, core::PipelineOptions::inter(),
                workload.program);
  for (std::size_t rank = 0; rank < tree.num_clients(); ++rank) {
    EXPECT_EQ(mapping.client_work[rank].empty(), rank != 0)
        << "client " << rank;
  }
}

TEST(FaultEndState, FailThenDegradeStaysFailed) {
  const auto config = tiny_machine();
  serve::MappingState state(config);
  EXPECT_FALSE(
      state.apply_faults(parse_fault_spec("fail@1:l2.0; degrade@2:l2.0:lat=2"))
          .has_value());
  const auto effective = state.effective_faults();
  ASSERT_EQ(effective.events.size(), 2u);
  EXPECT_EQ(effective.events[0].kind, FaultKind::kFailStop);
  EXPECT_EQ(effective.events[1].kind, FaultKind::kDegrade);
  EXPECT_DOUBLE_EQ(effective.events[1].latency_factor, 2.0);
  for (const auto& event : effective.events) {
    EXPECT_EQ(event.level, 2u);
    EXPECT_EQ(event.node_index, 0);
  }
}

TEST(FaultEndState, RecoveredFailStopDoesNotTriggerRemap) {
  const auto tree = tiny_machine().build_tree();
  const auto schedule = parse_fault_spec("fail@1ms:l2.0; recover@2ms:l2.0");
  EXPECT_FALSE(decide_remap(schedule, tree).triggered);
  const auto run =
      run_faulted("fail@1ms:l2.0; recover@2ms:l2.0; seed=5", true);
  EXPECT_FALSE(run.remapped);
  EXPECT_EQ(run.remap_pause, 0u);
}

/// A random schedule on the oracle machine: all five kinds, whole-level
/// and node targets, and runs of fail/degrade/recover on one node.
FaultSchedule random_schedule(Rng& rng) {
  constexpr std::int32_t kWidth[] = {0, 4, 2, 2};  // nodes per level
  const std::uint32_t focus_level = 1 + rng.next_below(3);
  const auto focus_index =
      static_cast<std::int32_t>(rng.next_below(kWidth[focus_level]));
  FaultSchedule schedule;
  schedule.seed = rng.next_u64();
  const std::uint64_t count = 1 + rng.next_below(8);
  for (std::uint64_t i = 0; i < count; ++i) {
    FaultEvent event;
    event.at = rng.next_below(6) * kMillisecond;  // ties keep add order
    event.kind = static_cast<FaultKind>(rng.next_below(5));
    if (event.kind == FaultKind::kTransient) {
      event.disk_error_rate = rng.next_below(2) * 0.25;
      event.net_error_rate = rng.next_below(2) * 0.5;
    } else if (event.kind == FaultKind::kStall) {
      event.duration = kMicrosecond;
    } else if (rng.next_below(2) == 0) {
      event.level = focus_level;
      event.node_index = focus_index;
    } else {
      event.level = 1 + static_cast<std::uint32_t>(rng.next_below(3));
      event.node_index =
          static_cast<std::int32_t>(rng.next_below(kWidth[event.level] + 1)) -
          1;  // -1: the whole level
    }
    if (event.kind == FaultKind::kDegrade) {
      event.latency_factor = 1.0 + static_cast<double>(rng.next_below(3));
      event.capacity_divisor = 1.0 + static_cast<double>(rng.next_below(2));
    }
    schedule.add(event);
  }
  return schedule;
}

TEST(FaultEndState, RandomSchedulesAgreeWithInjector) {
  sim::MachineConfig config = tiny_machine();
  config.storage_nodes = 2;  // a dummy root above two storage nodes
  const auto tree = config.build_tree();
  const auto workload = workloads::make_workload("astro", 1.0 / 16.0);
  const auto healthy = healthy_mapping(workload, config);
  Rng rng(20);
  std::size_t accepted = 0;
  for (int trial = 0; trial < 400; ++trial) {
    const FaultSchedule schedule = random_schedule(rng);
    SCOPED_TRACE(schedule.to_string());
    const FaultInjector end = fault_end_state(schedule, tree);
    bool any_failed = false;
    bool any_client_alive = false;
    for (topology::NodeId id = 0; id < tree.num_nodes(); ++id) {
      any_failed = any_failed || end.failed(id);
    }
    for (const topology::NodeId client : tree.clients()) {
      any_client_alive = any_client_alive || !end.failed(client);
    }

    // (a) The service's alive set; a schedule that kills every client
    // is rejected and leaves the state untouched.
    serve::MappingState state(config);
    if (!any_client_alive) {
      EXPECT_TRUE(state.apply_faults(schedule).has_value());
      EXPECT_EQ(state.num_alive_clients(), tree.num_clients());
      EXPECT_TRUE(state.effective_faults().empty());
    } else {
      EXPECT_FALSE(state.apply_faults(schedule).has_value());
      ++accepted;
      for (std::size_t rank = 0; rank < tree.num_clients(); ++rank) {
        EXPECT_EQ(state.client_alive()[rank],
                  !end.failed(tree.clients()[rank]))
            << "client " << rank;
      }

      // (c) Replaying the t=0 squash reproduces the end state.
      const FaultSchedule effective = state.effective_faults();
      for (const FaultEvent& event : effective.events) {
        EXPECT_EQ(event.at, 0u);
      }
      const FaultInjector replay = fault_end_state(effective, tree);
      for (topology::NodeId id = 0; id < tree.num_nodes(); ++id) {
        EXPECT_EQ(replay.failed(id), end.failed(id)) << "node " << id;
        EXPECT_EQ(replay.latency_factor(id), end.latency_factor(id))
            << "node " << id;
        EXPECT_EQ(replay.capacity_divisor(id), end.capacity_divisor(id))
            << "node " << id;
      }
      EXPECT_EQ(replay.disk_error_rate(), end.disk_error_rate());
      EXPECT_EQ(replay.net_error_rate(), end.net_error_rate());
    }

    // (b) The remap empties exactly the clients whose root path crosses
    // a failed node, unless that is every client.
    std::vector<bool> affected(tree.num_clients());
    std::size_t num_affected = 0;
    for (std::size_t rank = 0; rank < tree.num_clients(); ++rank) {
      for (const topology::NodeId id :
           tree.path_to_root(tree.clients()[rank])) {
        affected[rank] = affected[rank] || end.failed(id);
      }
      num_affected += affected[rank] ? 1 : 0;
    }
    auto mapping = healthy;
    remap_mapping(mapping, tree, schedule, core::PipelineOptions::inter(),
                  workload.program);
    for (std::size_t rank = 0; rank < tree.num_clients(); ++rank) {
      const bool emptied = num_affected < tree.num_clients() && affected[rank];
      EXPECT_EQ(mapping.client_work[rank].empty(), emptied)
          << "client " << rank;
    }

    // (d) The remap triggers exactly when something stays failed.
    EXPECT_EQ(decide_remap(schedule, tree).triggered, any_failed);
  }
  EXPECT_GT(accepted, 200u);
}

TEST(Resilience, HealthyRunsAreUntouchedByNullInjector) {
  const auto workload = workloads::make_workload("astro", 1.0 / 16.0);
  const auto with_null = sim::run_experiment(
      workload, core::PipelineOptions::inter(), tiny_machine(), nullptr);
  sim::ResilienceSpec empty;
  const auto with_empty = sim::run_experiment(
      workload, core::PipelineOptions::inter(), tiny_machine(), &empty);
  EXPECT_EQ(with_null.exec_time, with_empty.exec_time);
  EXPECT_EQ(with_null.engine.io_time_total, with_empty.engine.io_time_total);
  EXPECT_EQ(with_empty.engine.faults_applied, 0u);
  EXPECT_EQ(with_empty.fault_summary, "");
}

}  // namespace
}  // namespace mlsc::resilience
