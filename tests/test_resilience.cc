// Tests for the fault-injection and resilience subsystem: schedule
// parsing (spec grammar and JSON), the retry policy's capped backoff,
// the injector's deterministic state machine, degraded-mode replay
// accounting (retry/failover stall components, timeout budget), and
// remap-on-failure work redistribution.
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
#include "support/json.h"
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

TEST(FaultSpec, RandomGenerationIsSeedDeterministic) {
  const auto a = parse_fault_spec("rand@7:n=6:horizon=50ms");
  const auto b = parse_fault_spec("rand@7:n=6:horizon=50ms");
  const auto c = parse_fault_spec("rand@8:n=6:horizon=50ms");
  ASSERT_EQ(a.events.size(), b.events.size());
  EXPECT_EQ(a.to_string(), b.to_string());
  EXPECT_NE(a.to_string(), c.to_string());
}

TEST(FaultSchedule, ParsesJsonDocument) {
  const auto doc = parse_json(R"({"seed": 42, "events": [
      {"at_ms": 5, "kind": "fail-stop", "level": 2, "node": 0},
      {"at_ms": 0, "kind": "transient", "disk_error_rate": 0.01},
      {"at_ms": 10, "kind": "stall", "duration_ms": 2}]})");
  const auto schedule = parse_fault_schedule_json(doc);
  EXPECT_EQ(schedule.seed, 42u);
  ASSERT_EQ(schedule.events.size(), 3u);
  EXPECT_EQ(schedule.events[0].kind, FaultKind::kTransient);
  EXPECT_EQ(schedule.events[1].kind, FaultKind::kFailStop);
  EXPECT_EQ(schedule.events[2].duration, 2 * kMillisecond);
  EXPECT_THROW(parse_fault_schedule_json(parse_json(
                   R"({"events": [{"at_ms": 1, "kind": "melt"}]})")),
               Error);
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
  resilience.remap.remap_on_failure = remap;
  return sim::run_experiment(workload, sim::SchemeSpec::inter(),
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

TEST(Remap, DecisionTriggersOnFailStopOnly) {
  const auto tree = tiny_machine().build_tree();
  RemapPolicy policy;
  EXPECT_FALSE(
      decide_remap(policy, parse_fault_spec("degrade@1ms:l2.0:lat=2"), tree)
          .triggered);
  const auto decision =
      decide_remap(policy, parse_fault_spec("fail@3ms:l2.1"), tree);
  EXPECT_TRUE(decision.triggered);
  EXPECT_EQ(decision.at, 3 * kMillisecond);
  EXPECT_NE(decision.reason.find("level 2"), std::string::npos);
  policy.remap_on_failure = false;
  EXPECT_FALSE(
      decide_remap(policy, parse_fault_spec("fail@3ms:l2.1"), tree)
          .triggered);
}

TEST(Remap, SurvivingTopologyDropsFailedCaches) {
  const auto tree = tiny_machine().build_tree();
  const auto schedule =
      parse_fault_spec("fail@1ms:l2.0; fail@2ms:l2.1; recover@5ms:l2.1");
  const auto surviving = surviving_topology(tree, schedule);
  FaultEvent probe;
  probe.level = 2;
  probe.node_index = 0;
  const auto dead = resolve_fault_targets(tree, probe)[0];
  probe.node_index = 1;
  const auto alive = resolve_fault_targets(tree, probe)[0];
  EXPECT_EQ(surviving.node(dead).cache_capacity_bytes, 0u);
  EXPECT_GT(surviving.node(alive).cache_capacity_bytes, 0u);  // recovered
  EXPECT_EQ(surviving.num_clients(), tree.num_clients());
}

TEST(Remap, RedistributesWorkOffAffectedClients) {
  const auto workload = workloads::make_workload("astro", 1.0 / 16.0);
  const auto config = tiny_machine();
  const auto tree = config.build_tree();
  const core::DataSpace space(workload.program, config.chunk_size_bytes);
  core::PipelineOptions options;
  options.mapper = core::MapperKind::kInterProcessor;
  const auto schedule = parse_fault_spec("fail@1ms:l2.0");
  const auto surviving = surviving_topology(tree, schedule);
  const auto mapping = remap_mapping(surviving, schedule, options,
                                     workload.program, space);

  // Clients under the failed I/O node end up with no work; the others
  // carry everything, and no iteration is lost.
  FaultEvent probe;
  probe.level = 2;
  probe.node_index = 0;
  const auto dead = resolve_fault_targets(tree, probe)[0];
  std::set<std::size_t> affected;
  for (const topology::NodeId child : tree.node(dead).children) {
    affected.insert(tree.client_rank(child));
  }
  ASSERT_FALSE(affected.empty());
  std::uint64_t total = 0;
  for (std::size_t c = 0; c < mapping.client_work.size(); ++c) {
    if (affected.count(c) != 0) {
      EXPECT_TRUE(mapping.client_work[c].empty()) << "client " << c;
    }
    total += mapping.client_iterations(c);
  }
  EXPECT_EQ(total, workload.program.total_iterations());
  mapping.validate_partition(workload.program);
}

TEST(Remap, WholeLevelFailureKeepsMappingUsable) {
  // Every client affected: redistribution has nowhere to go and must
  // leave the mapping intact rather than emptying it.
  const auto workload = workloads::make_workload("astro", 1.0 / 16.0);
  const auto config = tiny_machine();
  const auto tree = config.build_tree();
  const core::DataSpace space(workload.program, config.chunk_size_bytes);
  core::PipelineOptions options;
  options.mapper = core::MapperKind::kInterProcessor;
  const auto schedule = parse_fault_spec("fail@1ms:l2");
  const auto surviving = surviving_topology(tree, schedule);
  const auto mapping = remap_mapping(surviving, schedule, options,
                                     workload.program, space);
  EXPECT_EQ(mapping.total_iterations(), workload.program.total_iterations());
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
// replay schedule, the survivor topology, the remap trigger — must agree
// with the injector's end state.

TEST(FaultEndState, WholeLevelFailThenNodeRecover) {
  // Only client 0 comes back; the other three stay failed.
  const auto config = tiny_machine();
  const auto tree = config.build_tree();
  const auto schedule = parse_fault_spec("fail@2ms:l1; recover@3ms:l1.0");
  serve::MappingState state(config);
  state.apply_faults(schedule);
  EXPECT_EQ(state.client_alive(),
            (std::vector<bool>{true, false, false, false}));
  const auto surviving = surviving_topology(tree, schedule);
  for (std::size_t rank = 0; rank < tree.num_clients(); ++rank) {
    EXPECT_EQ(surviving.node(tree.clients()[rank]).cache_capacity_bytes == 0,
              rank != 0)
        << "client " << rank;
  }
}

TEST(FaultEndState, FailThenDegradeStaysFailed) {
  const auto config = tiny_machine();
  serve::MappingState state(config);
  state.apply_faults(parse_fault_spec("fail@1:l2.0; degrade@2:l2.0:lat=2"));
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
  EXPECT_FALSE(decide_remap(RemapPolicy{}, schedule, tree).triggered);
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
      EXPECT_THROW(state.apply_faults(schedule), Error);
      EXPECT_EQ(state.num_alive_clients(), tree.num_clients());
      EXPECT_TRUE(state.effective_faults().empty());
    } else {
      state.apply_faults(schedule);
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

    // (b) The survivor topology zeroes exactly the failed nodes.
    const auto surviving = surviving_topology(tree, schedule);
    for (topology::NodeId id = 0; id < tree.num_nodes(); ++id) {
      EXPECT_EQ(surviving.node(id).cache_capacity_bytes,
                end.failed(id) ? 0 : tree.node(id).cache_capacity_bytes)
          << "node " << id;
    }

    // (d) The remap triggers exactly when something stays failed.
    EXPECT_EQ(decide_remap(RemapPolicy{}, schedule, tree).triggered,
              any_failed);
  }
  EXPECT_GT(accepted, 200u);
}

TEST(Resilience, HealthyRunsAreUntouchedByNullInjector) {
  const auto workload = workloads::make_workload("astro", 1.0 / 16.0);
  const auto with_null = sim::run_experiment(
      workload, sim::SchemeSpec::inter(), tiny_machine(), nullptr);
  sim::ResilienceSpec empty;
  const auto with_empty = sim::run_experiment(
      workload, sim::SchemeSpec::inter(), tiny_machine(), &empty);
  EXPECT_EQ(with_null.exec_time, with_empty.exec_time);
  EXPECT_EQ(with_null.engine.io_time_total, with_empty.engine.io_time_total);
  EXPECT_EQ(with_empty.engine.faults_applied, 0u);
  EXPECT_EQ(with_empty.fault_summary, "");
}

}  // namespace
}  // namespace mlsc::resilience
