#include "core/load_balance.h"

#include <algorithm>
#include <cmath>

#include "obs/metrics.h"
#include "obs/trace.h"
#include "support/check.h"
#include "support/log.h"

namespace mlsc::core {

BalanceLimits balance_limits(std::uint64_t total, std::size_t count,
                             double threshold) {
  MLSC_CHECK(count > 0, "limits need at least one cluster");
  MLSC_CHECK(threshold >= 0.0,
             "balance threshold must be a nonnegative number, got "
                 << threshold);
  const double ideal = static_cast<double>(total) / static_cast<double>(count);
  // A threshold above 1 puts ideal * (1 - threshold) below zero, and a
  // huge one puts the upper bound past 2^64: saturate both before the
  // cast instead of converting an out-of-range double.
  const auto saturate = [](double bound) -> std::uint64_t {
    if (!(bound > 0.0)) return 0;
    if (bound >= 0x1p64) return UINT64_MAX;
    return static_cast<std::uint64_t>(bound);
  };
  BalanceLimits limits;
  // Clamp so that a perfectly balanced partition is always admissible:
  // floor(ideal) and ceil(ideal) must be inside the window.
  limits.lower = std::min(static_cast<std::uint64_t>(std::floor(ideal)),
                          saturate(ideal * (1.0 - threshold)));
  limits.upper = std::max(static_cast<std::uint64_t>(std::ceil(ideal)),
                          saturate(ideal * (1.0 + threshold)));
  return limits;
}

namespace {

std::uint64_t total_iterations(const std::vector<Cluster>& clusters) {
  std::uint64_t total = 0;
  for (const auto& c : clusters) total += c.iterations;
  return total;
}

/// Result of scoring a donor's members against a recipient: the
/// best-affinity member that fits whole under `move_max`, and the
/// best-affinity member overall (split when nothing fits).
struct MemberChoice {
  std::uint32_t best_fit = UINT32_MAX;
  std::uint64_t best_fit_dot = 0;
  std::uint32_t best_any = UINT32_MAX;
  std::uint64_t best_any_dot = 0;
};

/// Folds one member into the running choice.  Only strict improvements
/// replace a pick, so among equal candidates the earliest member wins.
void fold_member(MemberChoice& choice, std::uint32_t member, std::uint64_t d,
                 std::uint64_t move_max,
                 const std::vector<IterationChunk>& chunks) {
  if (chunks[member].iterations <= move_max &&
      (choice.best_fit == UINT32_MAX || d > choice.best_fit_dot ||
       (d == choice.best_fit_dot &&
        chunks[member].iterations > chunks[choice.best_fit].iterations))) {
    choice.best_fit = member;
    choice.best_fit_dot = d;
  }
  if (choice.best_any == UINT32_MAX || d > choice.best_any_dot) {
    choice.best_any = member;
    choice.best_any_dot = d;
  }
}

/// The current recipient's cluster tag as a dense per-position count
/// vector, so a donor member's affinity Σ_{k ∈ tag} count[k] is a run of
/// direct loads.  Between two moves the recipient either stays and only
/// gains tags (absorbed() bumps the counts in place) or changes (track()
/// rebuilds), so every dot is the exact ClusterTag::dot integer and
/// fold_member picks the same member as a fresh rescan.
class RecipientCounts {
 public:
  void track(std::size_t recipient, const ClusterTag& tag) {
    if (recipient == recipient_) return;
    recipient_ = recipient;
    ++rebuilds_;
    for (std::uint32_t pos : nonzero_) counts_[pos] = 0;
    nonzero_.clear();
    for (const auto& entry : tag.entries()) {
      reach(entry.pos);
      counts_[entry.pos] = entry.count;
      nonzero_.push_back(entry.pos);
    }
  }

  void absorbed(const ChunkTag& tag) {
    for (std::uint32_t b : tag.bits()) {
      reach(b);
      if (counts_[b]++ == 0) nonzero_.push_back(b);
    }
  }

  std::uint64_t dot(const ChunkTag& tag) const {
    std::uint64_t total = 0;
    for (std::uint32_t b : tag.bits()) {
      if (b < counts_.size()) total += counts_[b];
    }
    return total;
  }

  std::size_t rebuilds() const { return rebuilds_; }

 private:
  void reach(std::uint32_t pos) {
    if (pos >= counts_.size()) counts_.resize(pos + 1, 0);
  }

  std::size_t recipient_ = SIZE_MAX;
  std::vector<std::uint32_t> counts_;   // by data-chunk position
  std::vector<std::uint32_t> nonzero_;  // positions to clear on rebuild
  std::size_t rebuilds_ = 0;
};

/// Moves `move_max` iterations' worth of the donor's best member to the
/// recipient: the highest-affinity member that fits whole, otherwise the
/// highest-affinity member split so exactly move_max iterations move.
void move_best_member(std::vector<Cluster>& clusters,
                      std::vector<IterationChunk>& chunks,
                      RecipientCounts& counts, std::size_t donor,
                      std::size_t recipient, std::uint64_t move_max,
                      const char* pass) {
  counts.track(recipient, clusters[recipient].tag);
  MemberChoice choice;
  for (std::uint32_t member : clusters[donor].members) {
    fold_member(choice, member, counts.dot(chunks[member].tag), move_max,
                chunks);
  }

  if (choice.best_fit != UINT32_MAX) {
    const std::uint32_t best_fit = choice.best_fit;
    MLSC_DEBUG(pass << ": member " << best_fit << " ("
               << chunks[best_fit].iterations << " iters) whole, cluster "
               << donor << " -> " << recipient);
    clusters[donor].remove_member(best_fit, chunks[best_fit]);
    clusters[recipient].add_member(best_fit, chunks[best_fit]);
    counts.absorbed(chunks[best_fit].tag);
    return;
  }
  const std::uint32_t best_any = choice.best_any;
  MLSC_CHECK(best_any != UINT32_MAX, "donor cluster has no members");
  MLSC_DEBUG(pass << ": member " << best_any << " split, " << move_max
             << " iters move, cluster " << donor << " -> " << recipient);
  // Split best_any into (move_max, rest): the head moves.
  auto [head, tail] = split_chunk(chunks[best_any], move_max);
  clusters[donor].remove_member(best_any, chunks[best_any]);
  chunks[best_any] = std::move(head);
  chunks.push_back(std::move(tail));
  const auto tail_index = static_cast<std::uint32_t>(chunks.size() - 1);
  clusters[recipient].add_member(best_any, chunks[best_any]);
  clusters[donor].add_member(tail_index, chunks[tail_index]);
  counts.absorbed(chunks[best_any].tag);
}

}  // namespace

bool is_balanced(const std::vector<Cluster>& clusters,
                 const BalanceOptions& options) {
  const auto limits = balance_limits(total_iterations(clusters),
                                     clusters.size(), options.threshold);
  for (const auto& c : clusters) {
    if (c.iterations < limits.lower || c.iterations > limits.upper) {
      return false;
    }
  }
  return true;
}

std::size_t balance_clusters(std::vector<Cluster>& clusters,
                             std::vector<IterationChunk>& chunks,
                             const BalanceOptions& options,
                             const BalanceLimits* explicit_limits) {
  MLSC_CHECK(!clusters.empty(), "cannot balance an empty cluster set");
  obs::Span span("pipeline.load_balance");
  span.arg("clusters", static_cast<std::uint64_t>(clusters.size()));
  const std::uint64_t total = total_iterations(clusters);
  auto limits = balance_limits(total, clusters.size(), options.threshold);
  if (explicit_limits != nullptr) {
    limits = *explicit_limits;
    // Widen just enough that a partition of this set's actual total is
    // admissible (floor/ceil of the local ideal must be inside).
    limits.lower = std::min(limits.lower, total / clusters.size());
    limits.upper = std::max(
        limits.upper, (total + clusters.size() - 1) / clusters.size());
  }
  std::size_t moves = 0;
  RecipientCounts counts;

  for (;;) {
    // Donor: the largest cluster above the upper limit.
    std::size_t donor = clusters.size();
    for (std::size_t i = 0; i < clusters.size(); ++i) {
      if (clusters[i].iterations > limits.upper &&
          (donor == clusters.size() ||
           clusters[i].iterations > clusters[donor].iterations)) {
        donor = i;
      }
    }
    if (donor == clusters.size()) break;  // everyone within the limits

    // Recipient: the smallest cluster (the paper prefers those below the
    // lower limit; the smallest is always a valid such choice when one
    // exists and degrades gracefully when none does).
    std::size_t recipient = donor == 0 ? 1 : 0;
    for (std::size_t i = 0; i < clusters.size(); ++i) {
      if (i != donor &&
          clusters[i].iterations < clusters[recipient].iterations) {
        recipient = i;
      }
    }

    const std::uint64_t allow_out = clusters[donor].iterations - limits.lower;
    const std::uint64_t allow_in =
        limits.upper - clusters[recipient].iterations;
    const std::uint64_t move_max = std::min(allow_out, allow_in);
    MLSC_CHECK(move_max >= 1,
               "balance cannot make progress (limits "
                   << limits.lower << ".." << limits.upper << ")");

    move_best_member(clusters, chunks, counts, donor, recipient, move_max,
                     "balance evict");
    ++moves;
    MLSC_CHECK(moves < 100000, "balance loop did not converge");
  }

  // Symmetric pass: pull up clusters below the lower limit.  (The limits
  // are tight around the ideal, so under-full clusters can coexist with
  // donors sitting exactly at the upper limit — the first pass alone
  // leaves them starved.)
  for (;;) {
    std::size_t recipient = clusters.size();
    for (std::size_t i = 0; i < clusters.size(); ++i) {
      if (clusters[i].iterations < limits.lower &&
          (recipient == clusters.size() ||
           clusters[i].iterations < clusters[recipient].iterations)) {
        recipient = i;
      }
    }
    if (recipient == clusters.size()) break;

    std::size_t donor = recipient == 0 ? 1 : 0;
    for (std::size_t i = 0; i < clusters.size(); ++i) {
      if (i != recipient &&
          clusters[i].iterations > clusters[donor].iterations) {
        donor = i;
      }
    }
    const std::uint64_t need = limits.lower - clusters[recipient].iterations;
    MLSC_CHECK(clusters[donor].iterations > limits.lower,
               "balance lower pass cannot make progress");
    const std::uint64_t move_max =
        std::min(need, clusters[donor].iterations - limits.lower);

    move_best_member(clusters, chunks, counts, donor, recipient, move_max,
                     "balance pull-up");
    ++moves;
    MLSC_CHECK(moves < 200000, "balance lower pass did not converge");
  }
  span.arg("moves", static_cast<std::uint64_t>(moves));
  span.arg("affinity_rebuilds", static_cast<std::uint64_t>(counts.rebuilds()));
  MLSC_COUNTER_ADD("pipeline.balance_moves", moves);
  MLSC_COUNTER_ADD("pipeline.balance_affinity_rebuilds", counts.rebuilds());
  return moves;
}

}  // namespace mlsc::core
