#include "serve/state.h"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <sstream>

#include "core/clustering.h"
#include "core/data_space.h"
#include "core/pair_scorer.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "support/check.h"
#include "workloads/registry.h"

namespace mlsc::serve {

using core::ForestEdge;

namespace {

std::string make_data_key(const std::string& name, double size_factor) {
  std::ostringstream out;
  out.precision(17);
  out << name << '@' << size_factor;
  return out.str();
}

/// Erases one id from a sorted posting list.
void posting_erase(std::vector<std::uint32_t>& list, std::uint32_t id) {
  const auto it = std::lower_bound(list.begin(), list.end(), id);
  MLSC_CHECK(it != list.end() && *it == id,
             "posting list missing chunk " << id);
  list.erase(it);
}

struct Placement {
  std::uint32_t index = 0;   // into the caller's size list
  std::uint32_t client = 0;
};

/// The one placement rule: clusters go heaviest-first (ties to the lower
/// index), each onto the least-loaded alive client (ties to the lower
/// rank), whose `load` grows by the cluster's size.  Returns the
/// placements in that order.
std::vector<Placement> place_heaviest_first(
    const std::vector<std::uint64_t>& sizes, const std::vector<bool>& alive,
    std::vector<std::uint64_t>& load) {
  std::vector<std::uint32_t> order(sizes.size());
  std::iota(order.begin(), order.end(), 0u);
  std::sort(order.begin(), order.end(), [&](std::uint32_t x, std::uint32_t y) {
    if (sizes[x] != sizes[y]) return sizes[x] > sizes[y];
    return x < y;
  });
  std::vector<Placement> placed;
  placed.reserve(order.size());
  for (const std::uint32_t i : order) {
    std::size_t pick = static_cast<std::size_t>(-1);
    for (std::size_t r = 0; r < load.size(); ++r) {
      if (!alive[r]) continue;
      if (pick == static_cast<std::size_t>(-1) || load[r] < load[pick]) {
        pick = r;
      }
    }
    MLSC_CHECK(pick != static_cast<std::size_t>(-1),
               "no alive clients to place on");
    load[pick] += sizes[i];
    placed.push_back(Placement{i, static_cast<std::uint32_t>(pick)});
  }
  return placed;
}

/// Max relative deviation of the alive clients' loads from their mean
/// (0 with no alive client or no load).
double max_deviation(const std::vector<std::uint64_t>& load,
                     const std::vector<bool>& alive) {
  std::uint64_t total = 0;
  std::size_t live = 0;
  for (std::size_t r = 0; r < load.size(); ++r) {
    if (!alive[r]) continue;
    total += load[r];
    ++live;
  }
  if (live == 0 || total == 0) return 0.0;
  const double mean = static_cast<double>(total) / static_cast<double>(live);
  double worst = 0.0;
  for (std::size_t r = 0; r < load.size(); ++r) {
    if (!alive[r]) continue;
    worst = std::max(worst,
                     std::abs(static_cast<double>(load[r]) - mean) / mean);
  }
  return worst;
}

}  // namespace

MappingState::MappingState(const sim::MachineConfig& machine,
                           ServeStateOptions options)
    : machine_(machine), tree_(machine.build_tree()), options_(options) {
  load_.assign(tree_.num_clients(), 0);
  client_alive_.assign(tree_.num_clients(), true);
}

std::uint64_t MappingState::chunk_order_key(std::uint32_t chunk) const {
  return core::Cluster::make_order_key(chunks_[chunk]);
}

bool MappingState::chunk_live(std::uint32_t chunk) const {
  return entries_[chunk_owner_[chunk]].live;
}

std::size_t MappingState::find_live(const std::string& id) const {
  for (std::size_t i = 0; i < entries_.size(); ++i) {
    if (entries_[i].live && entries_[i].id == id) return i;
  }
  return static_cast<std::size_t>(-1);
}

std::size_t MappingState::num_live_workloads() const {
  std::size_t n = 0;
  for (const WorkloadEntry& e : entries_) n += e.live ? 1 : 0;
  return n;
}

std::size_t MappingState::num_alive_clients() const {
  std::size_t n = 0;
  for (bool a : client_alive_) n += a ? 1 : 0;
  return n;
}

std::size_t MappingState::standing_chunks() const {
  std::size_t n = 0;
  for (const WorkloadEntry& e : entries_) {
    if (e.live) n += e.num_chunks;
  }
  return n;
}

std::uint64_t MappingState::total_load() const {
  std::uint64_t total = 0;
  for (std::uint64_t l : load_) total += l;
  return total;
}

std::size_t MappingState::cut_target() const {
  const std::size_t live = standing_chunks();
  if (live == 0) return 1;
  std::size_t requested = 0;
  for (const WorkloadEntry& e : entries_) {
    if (e.live) requested += e.requested_clients;
  }
  return std::clamp<std::size_t>(requested, 1, live);
}

double MappingState::imbalance() const {
  return max_deviation(load_, client_alive_);
}

// ---------------------------------------------------------------------------
// Registration

std::size_t MappingState::register_workload(const std::string& id,
                                            const std::string& name,
                                            double size_factor,
                                            std::uint32_t clients,
                                            ThreadPool* pool,
                                            DeltaStats* stats) {
  MLSC_CHECK(clients >= 1, "register needs at least one client");
  MLSC_CHECK(find_live(id) == static_cast<std::size_t>(-1),
             "workload id '" << id << "' is already live");

  obs::Span span("pipeline.serve_register");
  span.arg("standing_chunks", static_cast<std::uint64_t>(standing_chunks()));

  WorkloadEntry entry;
  entry.id = id;
  entry.name = name;
  entry.size_factor = size_factor;
  entry.requested_clients = clients;
  entry.live = true;
  entry.workload = workloads::make_workload(name, size_factor);

  // Tag — or copy a live sibling's chunk table when the data key is
  // already standing (tagging is deterministic, so the copy is exactly
  // what a recompute would produce).
  const std::string key = make_data_key(name, size_factor);
  std::vector<core::IterationChunk> tagged;
  std::uint32_t num_data_chunks = 0;
  std::size_t sibling = static_cast<std::size_t>(-1);
  for (std::size_t i = 0; i < entries_.size(); ++i) {
    if (entries_[i].live && entries_[i].name == name &&
        entries_[i].size_factor == size_factor) {
      sibling = i;
      break;
    }
  }
  if (sibling != static_cast<std::size_t>(-1)) {
    const WorkloadEntry& sib = entries_[sibling];
    tagged.assign(chunks_.begin() + sib.first_chunk,
                  chunks_.begin() + sib.first_chunk + sib.num_chunks);
    num_data_chunks = sib.num_data_chunks;
    entry.total_iterations = sib.total_iterations;
  } else {
    const core::DataSpace space(entry.workload.program,
                                machine_.chunk_size_bytes);
    std::vector<poly::NestId> nests(entry.workload.program.nests.size());
    std::iota(nests.begin(), nests.end(), 0u);
    core::TaggingResult result = core::compute_iteration_chunks(
        entry.workload.program, space, nests, options_.tagging, pool);
    tagged = std::move(result.chunks);
    num_data_chunks = result.num_data_chunks;
    entry.total_iterations = result.total_iterations;
  }

  auto [it, inserted] =
      data_keys_.try_emplace(key, DataKey{next_tag_offset_, num_data_chunks, 0});
  if (inserted) {
    next_tag_offset_ += num_data_chunks;
  } else {
    MLSC_CHECK(it->second.num_data_chunks == num_data_chunks,
               "data key '" << key << "' changed tag width");
  }
  it->second.live_instances += 1;
  entry.tag_offset = it->second.tag_offset;
  entry.num_data_chunks = num_data_chunks;

  entry.first_chunk = static_cast<std::uint32_t>(chunks_.size());
  entry.num_chunks = static_cast<std::uint32_t>(tagged.size());
  const std::uint32_t widx = static_cast<std::uint32_t>(entries_.size());
  entries_.push_back(std::move(entry));
  const WorkloadEntry& e = entries_.back();

  chunks_.insert(chunks_.end(), tagged.begin(), tagged.end());
  chunk_owner_.resize(chunks_.size(), widx);
  cluster_of_chunk_.resize(chunks_.size(), kUnplaced);
  parent_.reserve(chunks_.size());
  for (std::uint32_t g = e.first_chunk; g < chunks_.size(); ++g) {
    parent_.push_back(g);
  }

  // Post the new chunks.  Global ids grow monotonically, so push_back
  // keeps every list ascending.
  std::vector<std::uint32_t> rows(e.num_chunks);
  std::iota(rows.begin(), rows.end(), e.first_chunk);
  for (const std::uint32_t g : rows) {
    for (std::uint32_t bit : chunks_[g].tag.bits()) {
      postings_[e.tag_offset + bit].push_back(g);
    }
  }

  // Score only the arrival's rows and hook them into the standing
  // forest — the delta path's work is proportional to the arrival.
  const std::uint64_t scored = score_and_hook(rows, pool, stats);
  span.arg("new_chunks", static_cast<std::uint64_t>(e.num_chunks));
  span.arg("scored_pairs", scored);
  return widx;
}

std::uint64_t MappingState::score_and_hook(std::span<const std::uint32_t> rows,
                                           ThreadPool* pool,
                                           DeltaStats* stats) {
  // The shared row kernel over the standing posting index: tag bits read
  // as counts of 1, so every dot is the pair's shared-bit count.  The
  // per-row lists go out of scope before the hook allocates.
  std::vector<ForestEdge> edges;
  {
    const auto scored_rows = core::score_rows(
        rows, chunks_.size(),
        [&](std::uint32_t a, const auto& scan) {
          const std::uint64_t offset = entries_[chunk_owner_[a]].tag_offset;
          for (std::uint32_t bit : chunks_[a].tag.bits()) {
            const auto it = postings_.find(offset + bit);
            if (it != postings_.end()) scan(1, it->second);
          }
        },
        pool);
    std::size_t total = 0;
    for (const auto& row : scored_rows) total += row.size();
    edges.reserve(total);
    for (std::size_t i = 0; i < rows.size(); ++i) {
      for (const core::PairDot& pd : scored_rows[i]) {
        edges.push_back(
            ForestEdge{static_cast<double>(pd.dot), pd.b, rows[i]});
      }
    }
  }
  const std::uint64_t scored = edges.size();
  const std::size_t before = forest_.size();
  const std::size_t rounds =
      core::hook_forest(std::move(edges), parent_, forest_, pool);
  if (stats != nullptr) {
    stats->scored_pairs += scored;
    stats->rounds += rounds;
    stats->forest_hooks += forest_.size() - before;
  }
  MLSC_COUNTER_ADD("pipeline.serve_scored_pairs", scored);
  return scored;
}

// ---------------------------------------------------------------------------
// Departure / scaling

void MappingState::depart_workload(std::size_t widx) {
  WorkloadEntry& e = entries_[widx];
  MLSC_CHECK(e.live, "depart of a non-live workload entry");
  e.live = false;

  const auto key_it = data_keys_.find(make_data_key(e.name, e.size_factor));
  MLSC_CHECK(key_it != data_keys_.end() && key_it->second.live_instances > 0,
             "data key bookkeeping out of sync");
  key_it->second.live_instances -= 1;

  const std::uint32_t lo = e.first_chunk;
  const std::uint32_t hi = e.first_chunk + e.num_chunks;

  for (std::uint32_t g = lo; g < hi; ++g) {
    for (std::uint32_t bit : chunks_[g].tag.bits()) {
      const std::uint64_t k = e.tag_offset + bit;
      const auto it = postings_.find(k);
      MLSC_CHECK(it != postings_.end(), "posting key missing on depart");
      posting_erase(it->second, g);
      if (it->second.empty()) postings_.erase(it);
    }
  }

  forest_.erase(std::remove_if(forest_.begin(), forest_.end(),
                               [&](const ForestEdge& edge) {
                                 return (edge.u >= lo && edge.u < hi) ||
                                        (edge.v >= lo && edge.v < hi);
                               }),
                forest_.end());
  rebuild_parent_from_forest();

  // Strip the departing chunks out of the standing clusters; placements
  // of survivors stay (the cheap path — callers escalate per policy).
  for (auto& cluster : clusters_) {
    std::uint64_t removed = 0;
    for (const std::uint32_t m : cluster.members) {
      if (m >= lo && m < hi) removed += chunks_[m].iterations;
    }
    if (removed == 0) continue;
    cluster.members.erase(
        std::remove_if(cluster.members.begin(), cluster.members.end(),
                       [&](std::uint32_t m) { return m >= lo && m < hi; }),
        cluster.members.end());
    MLSC_CHECK(cluster.iterations >= removed, "cluster size underflow");
    cluster.iterations -= removed;
    if (cluster.client != kUnplaced) {
      MLSC_CHECK(load_[cluster.client] >= removed, "client load underflow");
      load_[cluster.client] -= removed;
    }
  }
  clusters_.erase(std::remove_if(clusters_.begin(), clusters_.end(),
                                 [](const ServeCluster& c) {
                                   return c.members.empty();
                                 }),
                  clusters_.end());
  std::fill(cluster_of_chunk_.begin(), cluster_of_chunk_.end(), kUnplaced);
  for (std::size_t c = 0; c < clusters_.size(); ++c) {
    for (const std::uint32_t m : clusters_[c].members) {
      cluster_of_chunk_[m] = static_cast<std::uint32_t>(c);
    }
  }
}

void MappingState::set_requested_clients(std::size_t widx,
                                         std::uint32_t clients) {
  MLSC_CHECK(clients >= 1, "scale needs at least one client");
  MLSC_CHECK(entries_[widx].live, "scale of a non-live workload entry");
  entries_[widx].requested_clients = clients;
}

void MappingState::set_baseline(std::size_t widx,
                                const cache::CacheStats& l2) {
  entries_[widx].baseline_l2 = l2;
  entries_[widx].has_baseline = true;
}

void MappingState::rebuild_parent_from_forest() {
  for (std::uint32_t i = 0; i < parent_.size(); ++i) parent_[i] = i;
  for (const ForestEdge& e : forest_) core::uf_union(parent_, e.u, e.v);
}

// ---------------------------------------------------------------------------
// Patch path

PatchPlan MappingState::build_patch(std::size_t widx) const {
  const WorkloadEntry& e = entries_[widx];
  MLSC_CHECK(e.live, "patch for a non-live workload entry");
  const std::uint32_t lo = e.first_chunk;
  const std::uint32_t hi = e.first_chunk + e.num_chunks;

  // Chunks hooked onto a standing component append to the cluster
  // holding the component's root (its smallest member — deterministic
  // when the cut split the component across several clusters).  The
  // purely-new components become nodes 0..k-1 in order of first sight,
  // i.e. of smallest member, each with its iteration total and smallest
  // order key.
  PatchPlan plan;
  std::unordered_map<std::uint32_t, std::size_t> append_slot;  // cluster
  std::unordered_map<std::uint32_t, std::uint32_t> node_of_root;
  std::vector<std::pair<std::uint32_t, std::uint32_t>> fresh;  // chunk, node
  std::vector<std::uint64_t> iterations;
  std::vector<std::uint64_t> order_keys;
  for (std::uint32_t g = lo; g < hi; ++g) {
    const std::uint32_t root = core::uf_find(parent_, g);
    if (root < lo) {
      const std::uint32_t cluster = cluster_of_chunk_[root];
      MLSC_CHECK(cluster != kUnplaced, "standing chunk without a cluster");
      const auto [it, inserted] =
          append_slot.try_emplace(cluster, plan.appends.size());
      if (inserted) plan.appends.push_back(PatchPlan::Append{cluster, {}, 0});
      plan.appends[it->second].members.push_back(g);
      plan.appends[it->second].iterations += chunks_[g].iterations;
      continue;
    }
    const auto [it, inserted] = node_of_root.try_emplace(
        root, static_cast<std::uint32_t>(iterations.size()));
    if (inserted) {
      iterations.push_back(0);
      order_keys.push_back(UINT64_MAX);
    }
    iterations[it->second] += chunks_[g].iterations;
    order_keys[it->second] =
        std::min(order_keys[it->second], chunk_order_key(g));
    fresh.emplace_back(g, it->second);
  }
  std::sort(plan.appends.begin(), plan.appends.end(),
            [](const PatchPlan::Append& x, const PatchPlan::Append& y) {
              return x.cluster < y.cluster;
            });

  // More purely-new components than the instance asked clients for: the
  // offline cut's leftover rule, cut_forest over an empty forest (the
  // identity union-find doubles as its node list 0..k-1).  An instance's
  // chunk ids ascend in order key, so the rank order is the node order.
  const std::size_t k = iterations.size();
  std::vector<std::uint32_t> parent(k);
  std::iota(parent.begin(), parent.end(), 0u);
  if (k > e.requested_clients) {
    MLSC_DCHECK(std::is_sorted(order_keys.begin(), order_keys.end()),
                "instance chunk ids out of order-key order");
    parent = core::cut_forest({}, parent, iterations, order_keys,
                              e.requested_clients, options_.cut_balance_slack);
  }

  // Materialize by root (a group's smallest node, so its smallest chunk
  // is seen first): clusters come out in order of smallest member, with
  // members ascending.
  std::vector<std::uint32_t> cluster_of_root(k, kUnplaced);
  for (const auto& [g, node] : fresh) {
    std::uint32_t& slot = cluster_of_root[core::uf_find(parent, node)];
    if (slot == kUnplaced) {
      slot = static_cast<std::uint32_t>(plan.new_clusters.size());
      plan.new_clusters.emplace_back();
    }
    plan.new_clusters[slot].members.push_back(g);
    plan.new_clusters[slot].iterations += chunks_[g].iterations;
  }
  return plan;
}

void MappingState::apply_patch(const PatchPlan& plan) {
  for (const PatchPlan::Append& ap : plan.appends) {
    ServeCluster& c = clusters_[ap.cluster];
    const std::size_t mid = c.members.size();
    c.members.insert(c.members.end(), ap.members.begin(), ap.members.end());
    std::inplace_merge(c.members.begin(), c.members.begin() + mid,
                       c.members.end());
    c.iterations += ap.iterations;
    if (c.client != kUnplaced) load_[c.client] += ap.iterations;
    for (const std::uint32_t m : ap.members) {
      cluster_of_chunk_[m] = ap.cluster;
    }
  }
  // New clusters join the table in placement order.
  std::vector<std::uint64_t> sizes;
  for (const ServeCluster& c : plan.new_clusters) sizes.push_back(c.iterations);
  for (const Placement& p : place_heaviest_first(sizes, client_alive_, load_)) {
    const auto ci = static_cast<std::uint32_t>(clusters_.size());
    clusters_.push_back(plan.new_clusters[p.index]);
    clusters_.back().client = p.client;
    for (const std::uint32_t m : clusters_.back().members) {
      cluster_of_chunk_[m] = ci;
    }
  }
}

double MappingState::simulate_patch(const PatchPlan& plan) const {
  if (num_alive_clients() == 0) return 0.0;  // no load can deviate
  std::vector<std::uint64_t> loads = load_;
  for (const PatchPlan::Append& ap : plan.appends) {
    const ServeCluster& c = clusters_[ap.cluster];
    if (c.client != kUnplaced) loads[c.client] += ap.iterations;
  }
  std::vector<std::uint64_t> sizes;
  for (const ServeCluster& c : plan.new_clusters) sizes.push_back(c.iterations);
  place_heaviest_first(sizes, client_alive_, loads);
  return max_deviation(loads, client_alive_);
}

// ---------------------------------------------------------------------------
// Partial / full remap

void MappingState::recut_all() {
  obs::Span span("pipeline.serve_recut");
  const std::size_t target = cut_target();
  span.arg("target", static_cast<std::uint64_t>(target));

  std::vector<std::uint32_t> alive_chunks;
  std::vector<std::uint64_t> iterations;
  std::vector<std::uint64_t> order_keys;
  for (std::uint32_t g = 0; g < chunks_.size(); ++g) {
    if (!chunk_live(g)) continue;
    alive_chunks.push_back(g);
    iterations.push_back(chunks_[g].iterations);
    order_keys.push_back(chunk_order_key(g));
  }
  clusters_.clear();
  std::fill(cluster_of_chunk_.begin(), cluster_of_chunk_.end(), kUnplaced);
  load_.assign(tree_.num_clients(), 0);
  if (alive_chunks.empty()) {
    span.end();
    return;
  }
  std::vector<std::uint32_t> parent =
      core::cut_forest(forest_, alive_chunks, iterations, order_keys, target,
                       options_.cut_balance_slack);

  // Materialize ascending by root (== smallest member), members
  // ascending, then place every cluster heaviest-first least-loaded.
  for (const std::uint32_t g : alive_chunks) {
    const std::uint32_t root = core::uf_find(parent, g);
    if (root == g) {
      // alive_chunks ascends and the root is the component's smallest
      // member, so first sight of a root is the root itself — clusters
      // come out ascending by root.
      cluster_of_chunk_[g] = static_cast<std::uint32_t>(clusters_.size());
      clusters_.push_back(ServeCluster{});
    }
    const std::uint32_t idx = cluster_of_chunk_[root];
    clusters_[idx].members.push_back(g);
    clusters_[idx].iterations += chunks_[g].iterations;
    cluster_of_chunk_[g] = idx;
  }
  MLSC_CHECK(clusters_.size() == target,
             "recut produced " << clusters_.size() << " clusters, wanted "
                               << target);

  std::vector<std::uint64_t> sizes;
  for (const ServeCluster& c : clusters_) sizes.push_back(c.iterations);
  for (const Placement& p : place_heaviest_first(sizes, client_alive_, load_)) {
    clusters_[p.index].client = p.client;
  }
  span.arg("clusters", static_cast<std::uint64_t>(clusters_.size()));
  span.end();
}

void MappingState::rebuild_all(ThreadPool* pool, DeltaStats* stats) {
  obs::Span span("pipeline.serve_rebuild");
  for (std::uint32_t i = 0; i < parent_.size(); ++i) parent_[i] = i;
  forest_.clear();

  std::vector<std::uint32_t> rows;
  for (std::uint32_t g = 0; g < chunks_.size(); ++g) {
    if (chunk_live(g)) rows.push_back(g);
  }
  const std::uint64_t scored = score_and_hook(rows, pool, stats);
  span.arg("rows", static_cast<std::uint64_t>(rows.size()));
  span.arg("scored_pairs", scored);
  span.end();
  recut_all();
}

// ---------------------------------------------------------------------------
// Faults

void MappingState::apply_faults(const resilience::FaultSchedule& schedule) {
  // Check the whole batch against the merged history before anything is
  // committed: a fail-stop or degrade of an absent node, or a batch that
  // leaves no alive client, is rejected and changes nothing.
  resilience::FaultSchedule merged = faults_;
  for (const resilience::FaultEvent& ev : schedule.events) {
    if (ev.kind == resilience::FaultKind::kRecover) {
      // A recover of a node the machine lacks heals nothing: not merged.
      try {
        resolve_fault_targets(tree_, ev);
      } catch (const Error&) {
        continue;
      }
    }
    merged.add(ev);
  }
  if (schedule.seed != 0) merged.seed = schedule.seed;

  const resilience::FaultInjector end =
      resilience::fault_end_state(merged, tree_);
  std::vector<bool> alive(tree_.num_clients());
  for (std::size_t rank = 0; rank < alive.size(); ++rank) {
    alive[rank] = !end.failed(tree_.clients()[rank]);
  }
  if (std::none_of(alive.begin(), alive.end(), [](bool a) { return a; })) {
    throw Error("fault leaves no alive client to place on");
  }
  faults_ = std::move(merged);
  client_alive_ = std::move(alive);
}

std::size_t MappingState::replace_orphans() {
  std::vector<std::uint32_t> orphans;
  std::vector<std::uint64_t> sizes;
  for (std::uint32_t c = 0; c < clusters_.size(); ++c) {
    const std::uint32_t client = clusters_[c].client;
    if (client != kUnplaced && !client_alive_[client]) {
      MLSC_CHECK(load_[client] >= clusters_[c].iterations,
                 "client load underflow");
      load_[client] -= clusters_[c].iterations;
      clusters_[c].client = kUnplaced;
      orphans.push_back(c);
      sizes.push_back(clusters_[c].iterations);
    }
  }
  for (const Placement& p : place_heaviest_first(sizes, client_alive_, load_)) {
    clusters_[orphans[p.index]].client = p.client;
  }
  return orphans.size();
}

resilience::FaultSchedule MappingState::effective_faults() const {
  // The end state of the cumulative history, re-stamped at t=0 so a
  // drift replay starts under today's conditions.
  const resilience::FaultInjector end =
      resilience::fault_end_state(faults_, tree_);
  resilience::FaultSchedule out;
  out.seed = faults_.seed;
  for (std::uint32_t level = 1; level <= 3; ++level) {
    resilience::FaultEvent whole;
    whole.level = level;  // node_index -1: every node of the level
    const auto nodes = resolve_fault_targets(tree_, whole);
    for (std::size_t idx = 0; idx < nodes.size(); ++idx) {
      resilience::FaultEvent ev;
      ev.level = level;
      ev.node_index = static_cast<std::int32_t>(idx);
      if (end.failed(nodes[idx])) {
        ev.kind = resilience::FaultKind::kFailStop;
        out.add(ev);
      }
      ev.latency_factor = end.latency_factor(nodes[idx]);
      ev.capacity_divisor = end.capacity_divisor(nodes[idx]);
      if (ev.latency_factor != 1.0 || ev.capacity_divisor != 1.0) {
        ev.kind = resilience::FaultKind::kDegrade;
        out.add(ev);
      }
    }
  }
  if (end.disk_error_rate() > 0.0 || end.net_error_rate() > 0.0) {
    resilience::FaultEvent ev;
    ev.kind = resilience::FaultKind::kTransient;
    ev.disk_error_rate = end.disk_error_rate();
    ev.net_error_rate = end.net_error_rate();
    out.add(ev);
  }
  return out;
}

// ---------------------------------------------------------------------------
// Drift-replay mapping

core::MappingResult MappingState::entry_mapping(
    std::size_t widx, std::size_t sample_clients) const {
  const WorkloadEntry& e = entries_[widx];
  MLSC_CHECK(e.live, "mapping of a non-live workload entry");

  core::MappingResult result;
  result.kind = core::MapperKind::kInterProcessor;
  result.mapper_name = "serve-solo";
  result.client_work.resize(tree_.num_clients());
  result.chunk_table.assign(chunks_.begin() + e.first_chunk,
                            chunks_.begin() + e.first_chunk + e.num_chunks);

  // Group this entry's chunks by the client their standing cluster sits
  // on, in the mapper's deterministic (nest, first_rank) item order.
  std::vector<std::uint32_t> locals(e.num_chunks);
  std::iota(locals.begin(), locals.end(), 0u);
  std::sort(locals.begin(), locals.end(),
            [&](std::uint32_t a, std::uint32_t b) {
              const core::IterationChunk& ca = result.chunk_table[a];
              const core::IterationChunk& cb = result.chunk_table[b];
              if (ca.nest != cb.nest) return ca.nest < cb.nest;
              return ca.first_rank() < cb.first_rank();
            });
  std::vector<std::uint64_t> entry_load(tree_.num_clients(), 0);
  for (const std::uint32_t local : locals) {
    const std::uint32_t g = e.first_chunk + local;
    const std::uint32_t cluster = cluster_of_chunk_[g];
    MLSC_CHECK(cluster != kUnplaced, "chunk without a cluster");
    const std::uint32_t client = clusters_[cluster].client;
    MLSC_CHECK(client != kUnplaced, "cluster without a placement");
    core::WorkItem item;
    item.nest = result.chunk_table[local].nest;
    item.order = poly::IterationOrder::identity(0);
    item.ranges = result.chunk_table[local].ranges;
    item.iterations = result.chunk_table[local].iterations;
    item.chunk = static_cast<std::int32_t>(local);
    result.client_work[client].push_back(std::move(item));
    entry_load[client] += result.chunk_table[local].iterations;
  }

  if (sample_clients > 0 && sample_clients < tree_.num_clients()) {
    // Keep only the K busiest clients (by this entry's load; ties to the
    // smaller rank) — a drift replay samples instead of running all 64.
    std::vector<std::size_t> ranks(tree_.num_clients());
    std::iota(ranks.begin(), ranks.end(), std::size_t{0});
    std::sort(ranks.begin(), ranks.end(), [&](std::size_t x, std::size_t y) {
      if (entry_load[x] != entry_load[y]) return entry_load[x] > entry_load[y];
      return x < y;
    });
    for (std::size_t i = sample_clients; i < ranks.size(); ++i) {
      result.client_work[ranks[i]].clear();
    }
  }
  return result;
}

// ---------------------------------------------------------------------------
// Invariants / fingerprint

void MappingState::check_invariants() const {
  const std::size_t n = chunks_.size();
  MLSC_CHECK(chunk_owner_.size() == n && cluster_of_chunk_.size() == n &&
                 parent_.size() == n,
             "chunk table sizes out of sync");
  MLSC_CHECK(load_.size() == tree_.num_clients() &&
                 client_alive_.size() == tree_.num_clients(),
             "client table sizes out of sync");

  // Every live chunk in exactly one cluster; members ascending and live;
  // cluster iteration totals exact; per-client loads exact.
  std::vector<std::uint32_t> seen(n, kUnplaced);
  std::vector<std::uint64_t> loads(tree_.num_clients(), 0);
  for (std::uint32_t c = 0; c < clusters_.size(); ++c) {
    const ServeCluster& cluster = clusters_[c];
    MLSC_CHECK(!cluster.members.empty(), "empty cluster survived");
    std::uint64_t iters = 0;
    std::uint32_t prev = 0;
    for (std::size_t m = 0; m < cluster.members.size(); ++m) {
      const std::uint32_t g = cluster.members[m];
      MLSC_CHECK(g < n, "cluster member out of range");
      MLSC_CHECK(m == 0 || g > prev, "cluster members not ascending");
      prev = g;
      MLSC_CHECK(chunk_live(g), "dead chunk in a cluster");
      MLSC_CHECK(seen[g] == kUnplaced, "chunk in two clusters");
      seen[g] = c;
      MLSC_CHECK(cluster_of_chunk_[g] == c, "cluster_of_chunk out of sync");
      iters += chunks_[g].iterations;
    }
    MLSC_CHECK(iters == cluster.iterations, "cluster iteration total drifted");
    if (cluster.client != kUnplaced) {
      MLSC_CHECK(cluster.client < loads.size(), "placement out of range");
      loads[cluster.client] += cluster.iterations;
    }
  }
  for (std::uint32_t g = 0; g < n; ++g) {
    if (chunk_live(g)) {
      MLSC_CHECK(seen[g] != kUnplaced, "live chunk not in any cluster");
    } else {
      MLSC_CHECK(cluster_of_chunk_[g] == kUnplaced,
                 "dead chunk still mapped to a cluster");
    }
  }
  for (std::size_t r = 0; r < loads.size(); ++r) {
    MLSC_CHECK(loads[r] == load_[r],
               "client " << r << " load drifted: tracked " << load_[r]
                         << ", actual " << loads[r]);
  }

  // Postings are exactly the live chunks' tag bits, ascending.
  std::size_t posted = 0;
  for (const auto& [key, list] : postings_) {
    MLSC_CHECK(!list.empty(), "empty posting list survived");
    std::uint32_t prev = 0;
    for (std::size_t i = 0; i < list.size(); ++i) {
      MLSC_CHECK(i == 0 || list[i] > prev, "posting list not ascending");
      prev = list[i];
      MLSC_CHECK(chunk_live(list[i]), "dead chunk still posted");
    }
    posted += list.size();
  }
  std::size_t expected = 0;
  for (std::uint32_t g = 0; g < n; ++g) {
    if (!chunk_live(g)) continue;
    const std::uint64_t offset = entries_[chunk_owner_[g]].tag_offset;
    for (std::uint32_t bit : chunks_[g].tag.bits()) {
      const auto it = postings_.find(offset + bit);
      MLSC_CHECK(it != postings_.end() &&
                     std::binary_search(it->second.begin(), it->second.end(),
                                        g),
                 "live chunk bit not posted");
      ++expected;
    }
  }
  MLSC_CHECK(posted == expected, "posting index carries stale entries");

  // Forest edges alive and acyclic; parent_ matches the forest exactly.
  std::vector<std::uint32_t> scratch(n);
  std::iota(scratch.begin(), scratch.end(), 0u);
  for (const ForestEdge& e : forest_) {
    MLSC_CHECK(e.u < e.v && e.v < n, "malformed forest edge");
    MLSC_CHECK(chunk_live(e.u) && chunk_live(e.v), "dead forest endpoint");
    MLSC_CHECK(core::uf_union(scratch, e.u, e.v),
               "forest edge formed a cycle");
  }
  for (std::uint32_t g = 0; g < n; ++g) {
    MLSC_CHECK(core::uf_find(scratch, g) == core::uf_find(parent_, g),
               "standing union-find out of sync with the forest");
  }
}

std::string MappingState::fingerprint() const {
  // Chunks are named (instance id, local index): comparable across
  // histories that assigned different global ids, as long as the live
  // instances arrived in the same relative order.
  std::ostringstream out;
  out.precision(17);
  for (const WorkloadEntry& e : entries_) {
    if (!e.live) continue;
    out << "workload " << e.id << " name=" << e.name
        << " size_factor=" << e.size_factor
        << " clients=" << e.requested_clients << " chunks=" << e.num_chunks
        << " iterations=" << e.total_iterations << "\n";
  }
  for (const ServeCluster& cluster : clusters_) {
    out << "cluster client=";
    if (cluster.client == kUnplaced) {
      out << "-";
    } else {
      out << cluster.client;
    }
    out << " iterations=" << cluster.iterations << " members=";
    for (std::size_t m = 0; m < cluster.members.size(); ++m) {
      const std::uint32_t g = cluster.members[m];
      const WorkloadEntry& owner = entries_[chunk_owner_[g]];
      if (m != 0) out << ",";
      out << owner.id << ":" << (g - owner.first_chunk);
    }
    out << "\n";
  }
  for (std::size_t r = 0; r < load_.size(); ++r) {
    out << "client " << r << " load=" << load_[r]
        << " alive=" << (client_alive_[r] ? 1 : 0) << "\n";
  }
  return out.str();
}

}  // namespace mlsc::serve
