#include "sim/engine.h"

#include <cstdio>
#include <optional>
#include <queue>
#include <vector>

#include "core/access_walk.h"
#include "io/striping.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "resilience/fault.h"
#include "support/check.h"

namespace mlsc::sim {
namespace {

/// Per-client replay cursor.
struct ClientState {
  Nanoseconds clock = 0;
  std::size_t item = 0;       // index into trace items / work items
  std::uint64_t iter = 0;     // iterations completed within the item
  std::uint64_t access = 0;   // accesses issued so far
  std::optional<core::AccessWalk> walk;  // the current item's accesses
  Nanoseconds io_time = 0;
  Nanoseconds compute_time = 0;
  Nanoseconds sync_wait = 0;
  bool done = false;
};

struct HeapEntry {
  Nanoseconds clock;
  std::size_t client;
  bool operator>(const HeapEntry& other) const {
    if (clock != other.clock) return clock > other.clock;
    return client > other.client;
  }
};

}  // namespace

EngineResult run_engine(const Trace& trace,
                        const core::MappingResult& mapping,
                        const MachineConfig& config,
                        const topology::HierarchyTree& tree,
                        resilience::FaultInjector* faults) {
  const std::size_t num_clients = trace.clients.size();
  MLSC_CHECK(num_clients == tree.num_clients(),
             "trace client count does not match the tree");
  MLSC_CHECK(trace.program != nullptr && trace.space != nullptr,
             "trace has no program or data space");
  MLSC_CHECK(mapping.num_clients() == num_clients,
             "trace client count does not match the mapping");
  for (std::size_t c = 0; c < num_clients; ++c) {
    MLSC_CHECK(mapping.client_work[c].size() == trace.clients[c].items.size(),
               "trace of client " << c << " does not match the mapping");
  }
  const std::uint32_t num_data_chunks = trace.space->num_chunks();

  cache::MultiLevelCache caches(tree, config.chunk_size_bytes, config.policy,
                                config.placement);
  caches.set_write_back(config.write_back);
  caches.set_cooperative(config.cooperative_caching);
  // The explanation observer (DESIGN.md §18): one per cache instance,
  // fed from the same serial replay loop that updates CacheStats, so its
  // output is deterministic at any thread count (threads only affect the
  // mapping stage; the mapping itself is bit-identical).
  std::unique_ptr<obs::HierarchyInsight> insight;
  if (config.explain) {
    insight = std::make_unique<obs::HierarchyInsight>(
        static_cast<std::uint32_t>(num_clients));
    caches.attach_insight(*insight);
  }
  const io::DiskModel disk(config.disk);
  const io::NetworkModel network(config.network);
  const io::StripingLayout striping(config.stripe_size_bytes,
                                    config.chunk_size_bytes,
                                    config.storage_nodes);

  const std::uint32_t client_level = tree.num_levels() - 1;
  // Level of the storage layer (disk hops target).
  std::uint32_t storage_level = 0;
  for (topology::NodeId id = 0; id < tree.num_nodes(); ++id) {
    if (tree.node(id).kind == topology::NodeKind::kStorage) {
      storage_level = tree.node(id).level;
      break;
    }
  }
  const std::uint32_t disk_hops = client_level - storage_level;

  // Cross-client sync: for each (client, item), the producers it waits on.
  std::vector<std::vector<std::vector<core::SyncEdge>>> waits(num_clients);
  for (std::size_t c = 0; c < num_clients; ++c) {
    waits[c].resize(trace.clients[c].items.size());
  }
  for (const auto& edge : mapping.sync_edges) {
    MLSC_CHECK(edge.consumer_client < num_clients &&
                   edge.consumer_item < waits[edge.consumer_client].size(),
               "sync edge addresses a missing item");
    waits[edge.consumer_client][edge.consumer_item].push_back(edge);
  }
  std::vector<std::vector<Nanoseconds>> item_finish(num_clients);
  std::vector<std::vector<bool>> item_done(num_clients);
  // Clients blocked on an unfinished producer item register here and are
  // woken when it completes (no polling).
  std::vector<std::vector<std::vector<std::size_t>>> waiters(num_clients);
  for (std::size_t c = 0; c < num_clients; ++c) {
    item_finish[c].assign(trace.clients[c].items.size(), 0);
    item_done[c].assign(trace.clients[c].items.size(), false);
    waiters[c].resize(trace.clients[c].items.size());
  }

  std::vector<ClientState> state(num_clients);
  std::vector<Nanoseconds> disk_busy(config.storage_nodes, 0);
  std::vector<core::ChunkId> disk_last_chunk(config.storage_nodes,
                                             UINT32_MAX);

  std::priority_queue<HeapEntry, std::vector<HeapEntry>,
                      std::greater<HeapEntry>> heap;
  for (std::size_t c = 0; c < num_clients; ++c) {
    if (trace.clients[c].items.empty()) {
      state[c].done = true;
    } else {
      heap.push(HeapEntry{0, c});
    }
  }

  EngineResult result;
  result.client_demand_bytes.assign(num_clients, 0);
  const std::uint64_t chunk_bytes = config.chunk_size_bytes;

  // Per-client virtual timelines: one trace process per simulated client
  // (pid kClientPidBase + c), timestamped in simulated nanoseconds.  Each
  // client's emission stops after client_event_budget() events so the
  // trace file stays bounded on long replays.
  const bool tracing = obs::trace_enabled();
  std::vector<std::uint32_t> events_left;
  if (tracing) {
    events_left.assign(num_clients, obs::client_event_budget());
    for (std::size_t c = 0; c < num_clients; ++c) {
      const auto pid = obs::kClientPidBase + static_cast<std::int64_t>(c);
      obs::set_process_name(pid, "client " + std::to_string(c));
      obs::set_thread_name(pid, 0, "replay");
    }
  }
  auto emit_client = [&](std::size_t c, const char* name, Nanoseconds start,
                         Nanoseconds dur) {
    if (!tracing || dur == 0 || events_left[c] == 0) return;
    --events_left[c];
    obs::emit_complete(obs::kClientPidBase + static_cast<std::int64_t>(c), 0,
                       name, start, dur);
  };

  // Sampled counter timelines (ph "C") on one dedicated virtual-time
  // track (the faults track, when present, sits at +num_clients):
  // per-level miss totals, plus interference totals when the
  // explanation observer is attached.  One sample per 4096 accesses
  // keeps the trace bounded; sampling is driven by the deterministic
  // access count, so traces replay identically at any thread count.
  const auto counter_pid =
      obs::kClientPidBase + static_cast<std::int64_t>(num_clients) + 1;
  bool counter_track_named = false;
  auto emit_counter_samples = [&](Nanoseconds now) {
    if (!counter_track_named) {
      obs::set_process_name(counter_pid, "cache counters");
      counter_track_named = true;
    }
    const auto ts = static_cast<std::uint64_t>(now);
    obs::emit_counter(
        counter_pid, "cache.l1.misses", ts,
        caches.aggregate_stats(topology::NodeKind::kCompute).misses);
    obs::emit_counter(counter_pid, "cache.l2.misses", ts,
                      caches.aggregate_stats(topology::NodeKind::kIo).misses);
    obs::emit_counter(
        counter_pid, "cache.l3.misses", ts,
        caches.aggregate_stats(topology::NodeKind::kStorage).misses);
    if (insight != nullptr) {
      // The private L1 sees only its own client's stream, so its
      // interference is structurally zero — only the shared levels get
      // a timeline.
      obs::emit_counter(counter_pid, "insight.l2.interference", ts,
                        insight->level_interference(2));
      obs::emit_counter(counter_pid, "insight.l3.interference", ts,
                        insight->level_interference(3));
    }
  };

  obs::Histogram* latency_hist = nullptr;
  if (obs::metrics_enabled()) {
    latency_hist = &obs::Registry::global().histogram(
        "engine.access_latency_ns",
        {1e3, 1e4, 1e5, 1e6, 1e7, 1e8, 1e9});
  }

  // Starts walking client c's current item.
  auto open_walk = [&](std::size_t c) -> core::AccessWalk& {
    const core::WorkItem& work = mapping.client_work[c][state[c].item];
    return state[c].walk.emplace(*trace.program, *trace.space,
                                 trace.program->nest(work.nest), work.order,
                                 work.ranges);
  };

  // Marks an item finished and wakes clients blocked on it.  Its walk
  // must end exactly after the item's iteration count.
  auto complete_item = [&](std::size_t c, std::size_t item,
                           Nanoseconds when) {
    MLSC_CHECK(state[c].walk->done(),
               "trace iteration count mismatch for client "
                   << c << " item " << item << ": the walk outlasts "
                   << trace.clients[c].items[item].iterations
                   << " iterations");
    item_finish[c][item] = when;
    item_done[c][item] = true;
    for (std::size_t waiter : waiters[c][item]) {
      ClientState& w = state[waiter];
      if (when > w.clock) {
        w.sync_wait += when - w.clock;
        emit_client(waiter, "sync wait", w.clock, when - w.clock);
        w.clock = when;
      }
      heap.push(HeapEntry{w.clock, waiter});
    }
    waiters[c][item].clear();
  };

  while (!heap.empty()) {
    const auto [clock_snapshot, c] = heap.top();
    heap.pop();
    ClientState& s = state[c];
    if (s.done) continue;
    const ClientTrace& ct = trace.clients[c];

    if (faults != nullptr) {
      // The globally earliest client crosses fault timestamps first, so
      // events fire exactly when virtual time reaches them.
      faults->advance_to(s.clock, &caches);
      // Global stall events (remap downtime) are charged lazily: each
      // client absorbs its uncharged share when it next runs, then goes
      // back on the heap so the earliest-first ordering stays exact.
      const Nanoseconds stall = faults->take_pending_stall(c);
      if (stall > 0) {
        emit_client(c, "fault stall", s.clock, stall);
        s.clock += stall;
        result.fault_stall_total += stall;
        heap.push(HeapEntry{s.clock, c});
        continue;
      }
    }

    // Skip exhausted items (possible when an item has zero iterations).
    while (s.item < ct.items.size() &&
           s.iter >= ct.items[s.item].iterations) {
      open_walk(c);
      complete_item(c, s.item, s.clock);
      ++s.item;
      s.iter = 0;
    }
    if (s.item >= ct.items.size()) {
      s.done = true;
      continue;
    }

    // Item start: honor sync edges.  An unfinished producer parks this
    // client on its waiter list; complete_item() re-queues it.
    if (s.iter == 0 && !waits[c][s.item].empty()) {
      bool blocked = false;
      Nanoseconds ready = s.clock;
      for (const auto& edge : waits[c][s.item]) {
        if (item_done[edge.producer_client][edge.producer_item]) {
          ready = std::max(
              ready, item_finish[edge.producer_client][edge.producer_item]);
        } else {
          waiters[edge.producer_client][edge.producer_item].push_back(c);
          blocked = true;
          break;
        }
      }
      if (blocked) continue;  // woken by complete_item
      if (ready > s.clock) {
        s.sync_wait += ready - s.clock;
        emit_client(c, "sync wait", s.clock, ready - s.clock);
        s.clock = ready;
      }
    }

    // Execute one iteration: compute, then its accesses.
    const TraceItem& item = ct.items[s.item];
    emit_client(c, "compute", s.clock, item.compute_ns_per_iteration);
    s.clock += item.compute_ns_per_iteration;
    s.compute_time += item.compute_ns_per_iteration;

    core::AccessWalk& walk = s.iter == 0 ? open_walk(c) : *s.walk;
    MLSC_CHECK(!walk.done(), "trace iteration count mismatch for client "
                                 << c << " item " << s.item
                                 << ": the walk ends after " << s.iter
                                 << " of " << item.iterations
                                 << " iterations");
    const topology::NodeId client_node = tree.clients()[c];
    if (insight != nullptr) {
      insight->set_current_client(static_cast<std::uint32_t>(c));
    }

    // Charges an asynchronous disk operation (write-back flush or
    // prefetch): it occupies the spindle but does not stall the client.
    auto charge_disk_async = [&](core::ChunkId chunk,
                                 io::SeekClass seek) {
      const std::size_t sn = striping.storage_node_of_chunk(chunk);
      disk_busy[sn] = std::max(disk_busy[sn], s.clock) +
                      disk.service_time(config.chunk_size_bytes, seek);
      disk_last_chunk[sn] = chunk;
    };

    for (const core::ChunkAccess& access : walk.next()) {
      // Identity of this operation for transient-error draws: the
      // client's position in its own access stream, which is invariant
      // under replay interleaving and thread count.
      const std::uint64_t op_id = s.access++;
      const auto hit =
          caches.access(client_node, access.chunk, access.is_write);
      for (std::uint32_t w = 0; w < hit.writebacks_to_disk; ++w) {
        charge_disk_async(access.chunk, io::SeekClass::kNear);
        ++result.disk_writebacks;
        result.bytes.writeback += chunk_bytes;
      }

      // Failed caches on the path each cost a failover-detection penalty
      // (probe, time out, redirect) before the access proceeds.
      Nanoseconds failover_ns = 0;
      if (faults != nullptr && hit.failed_probes > 0) {
        failover_ns = hit.failed_probes * faults->retry().failover_detect_ns;
        result.time_failover += failover_ns;
        result.failovers += hit.failed_probes;
      }

      Nanoseconds latency = 0;
      const char* stall = "disk";
      // Transient-error exposure of the serving path: disk errors for
      // misses, network errors for remote cache hits; a hit in the
      // client's own cache is local and cannot draw an error.
      double error_rate = 0.0;
      if (hit.peer_hit) {
        // Cooperative hit in a sibling's cache: two hops via the parent.
        latency = network.transfer_time(config.chunk_size_bytes, 2);
        if (faults != nullptr) {
          latency = static_cast<Nanoseconds>(
              static_cast<double>(latency) *
              faults->latency_factor(hit.hit_node));
          error_rate = faults->net_error_rate();
        }
        result.time_peer_cache += latency;
        ++result.peer_hits;
        result.bytes.from_peer += chunk_bytes;
        result.client_demand_bytes[c] += chunk_bytes;
        stall = "peer hit";
      } else if (!hit.from_disk()) {
        const std::uint32_t hops =
            client_level - tree.node(hit.hit_node).level;
        latency = network.transfer_time(config.chunk_size_bytes, hops);
        if (faults != nullptr) {
          // Degraded node: the whole service time stretches by its factor.
          latency = static_cast<Nanoseconds>(
              static_cast<double>(latency) *
              faults->latency_factor(hit.hit_node));
        }
        if (hit.hit_node == client_node) {
          result.time_client_cache += latency;
          result.bytes.from_l1 += chunk_bytes;
          stall = "l1 hit";
        } else {
          if (faults != nullptr) error_rate = faults->net_error_rate();
          result.time_shared_cache += latency;
          result.client_demand_bytes[c] += chunk_bytes;
          if (tree.node(hit.hit_node).kind == topology::NodeKind::kIo) {
            result.bytes.from_l2 += chunk_bytes;
            stall = "l2 hit";
          } else {
            result.bytes.from_l3 += chunk_bytes;
            stall = "l3 hit";
          }
        }
      } else {
        const std::size_t sn = striping.storage_node_of_chunk(access.chunk);
        const io::SeekClass seek =
            disk_last_chunk[sn] == UINT32_MAX
                ? io::SeekClass::kFar
                : disk.classify_seek(disk_last_chunk[sn], access.chunk);
        const Nanoseconds service =
            disk.service_time(config.chunk_size_bytes, seek);
        const Nanoseconds queue_delay =
            disk_busy[sn] > s.clock ? disk_busy[sn] - s.clock : 0;
        disk_busy[sn] = std::max(disk_busy[sn], s.clock) + service;
        disk_last_chunk[sn] = access.chunk;
        latency = network.transfer_time(config.chunk_size_bytes, disk_hops) +
                  queue_delay + service;
        if (faults != nullptr) error_rate = faults->disk_error_rate();
        result.time_disk += latency;
        result.time_disk_queue += queue_delay;
        ++result.disk_requests;
        result.bytes.from_disk += chunk_bytes;
        result.client_demand_bytes[c] += chunk_bytes;

        // Sequential readahead: pull the next chunks into the client's
        // path asynchronously.
        for (std::uint32_t r = 1; r <= config.readahead_chunks; ++r) {
          const std::uint64_t next =
              static_cast<std::uint64_t>(access.chunk) + r;
          if (next >= num_data_chunks) break;
          const auto next_chunk = static_cast<core::ChunkId>(next);
          if (caches.resident_on_path(client_node, next_chunk)) continue;
          const std::uint32_t flushes =
              caches.install(client_node, next_chunk);
          for (std::uint32_t w = 0; w < flushes; ++w) {
            charge_disk_async(next_chunk, io::SeekClass::kNear);
            ++result.disk_writebacks;
            result.bytes.writeback += chunk_bytes;
          }
          charge_disk_async(next_chunk, io::SeekClass::kSequential);
          ++result.prefetches;
          result.bytes.prefetch += chunk_bytes;
        }
      }
      // Transient errors: each failed attempt wastes the service latency
      // plus a capped exponential backoff; the per-access timeout budget
      // bounds the total, charging exactly the remainder when it trips.
      Nanoseconds retry_ns = 0;
      if (faults != nullptr && error_rate > 0.0) {
        const resilience::RetryPolicy& rp = faults->retry();
        for (std::uint32_t attempt = 1; attempt < rp.max_attempts;
             ++attempt) {
          if (!faults->draw_error(c, op_id, attempt, error_rate)) break;
          ++result.transient_errors;
          Nanoseconds cost = latency + rp.backoff(attempt);
          if (retry_ns + cost >= rp.access_timeout_ns) {
            retry_ns = rp.access_timeout_ns;
            ++result.retry_timeouts;
            break;
          }
          retry_ns += cost;
          ++result.retries;
        }
        result.time_retry += retry_ns;
      }

      Nanoseconds t = s.clock;
      if (failover_ns > 0) {
        emit_client(c, "failover", t, failover_ns);
        t += failover_ns;
      }
      if (retry_ns > 0) {
        emit_client(c, "retry", t, retry_ns);
        t += retry_ns;
      }
      emit_client(c, stall, t, latency);
      const Nanoseconds total = failover_ns + retry_ns + latency;
      if (latency_hist != nullptr) {
        latency_hist->observe(static_cast<double>(total));
      }
      s.clock += total;
      s.io_time += total;
      ++result.accesses;
      if (tracing && (result.accesses & 4095) == 0) {
        emit_counter_samples(s.clock);
      }
    }

    ++s.iter;
    if (s.iter >= item.iterations) {
      complete_item(c, s.item, s.clock);
      ++s.item;
      s.iter = 0;
    }
    if (s.item >= ct.items.size()) {
      s.done = true;
    } else {
      heap.push(HeapEntry{s.clock, c});
    }
  }

  for (std::size_t c = 0; c < num_clients; ++c) {
    MLSC_CHECK(state[c].done,
               "client " << c << " never finished — sync edges form a cycle");
    result.exec_time = std::max(result.exec_time, state[c].clock);
    result.io_time_total += state[c].io_time;
    result.io_time_max = std::max(result.io_time_max, state[c].io_time);
    result.compute_time_total += state[c].compute_time;
    result.sync_wait_total += state[c].sync_wait;
  }
  result.l1 = caches.aggregate_stats(topology::NodeKind::kCompute);
  result.l2 = caches.aggregate_stats(topology::NodeKind::kIo);
  result.l3 = caches.aggregate_stats(topology::NodeKind::kStorage);
  if (insight != nullptr) result.insight = insight->finalize();
  if (tracing && result.accesses > 0) {
    // Close every counter timeline with a final sample at the end of
    // the replay.
    emit_counter_samples(result.exec_time);
  }

  if (faults != nullptr) {
    result.faults_applied = faults->events_applied();
    if (tracing) {
      // A dedicated virtual-time track showing when each fault fired.
      const auto fault_pid =
          obs::kClientPidBase + static_cast<std::int64_t>(num_clients);
      obs::set_process_name(fault_pid, "faults");
      obs::set_thread_name(fault_pid, 0, "schedule");
      for (const auto& applied : faults->applied()) {
        obs::emit_complete(fault_pid, 0, applied.description, applied.at,
                           kMicrosecond);
      }
    }
    MLSC_COUNTER_ADD("engine.faults_applied", result.faults_applied);
    MLSC_COUNTER_ADD("engine.transient_errors", result.transient_errors);
    MLSC_COUNTER_ADD("engine.retries", result.retries);
    MLSC_COUNTER_ADD("engine.retry_timeouts", result.retry_timeouts);
    MLSC_COUNTER_ADD("engine.failovers", result.failovers);
    MLSC_COUNTER_ADD("engine.retry_ns", result.time_retry);
    MLSC_COUNTER_ADD("engine.failover_ns", result.time_failover);
    MLSC_COUNTER_ADD("engine.fault_stall_ns", result.fault_stall_total);
  }

  MLSC_COUNTER_ADD("engine.accesses", result.accesses);
  MLSC_COUNTER_ADD("engine.bytes_moved", result.bytes.below_l1());
  MLSC_COUNTER_ADD("engine.bytes_from_l1", result.bytes.from_l1);
  MLSC_COUNTER_ADD("engine.bytes_from_l2", result.bytes.from_l2);
  MLSC_COUNTER_ADD("engine.bytes_from_l3", result.bytes.from_l3);
  MLSC_COUNTER_ADD("engine.bytes_from_peer", result.bytes.from_peer);
  MLSC_COUNTER_ADD("engine.bytes_from_disk", result.bytes.from_disk);
  MLSC_COUNTER_ADD("engine.bytes_prefetch", result.bytes.prefetch);
  MLSC_COUNTER_ADD("engine.bytes_writeback", result.bytes.writeback);
  MLSC_COUNTER_ADD("engine.disk_requests", result.disk_requests);
  MLSC_COUNTER_ADD("engine.disk_writebacks", result.disk_writebacks);
  MLSC_COUNTER_ADD("engine.peer_hits", result.peer_hits);
  MLSC_COUNTER_ADD("engine.prefetches", result.prefetches);
  MLSC_COUNTER_ADD("engine.sync_wait_ns", result.sync_wait_total);
  MLSC_COUNTER_ADD("engine.io_ns", result.io_time_total);
  MLSC_COUNTER_ADD("engine.compute_ns", result.compute_time_total);
  MLSC_GAUGE_SET("engine.exec_time_ns", result.exec_time);
  return result;
}

}  // namespace mlsc::sim
