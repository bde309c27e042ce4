// The serve remap cost/benefit policy (DESIGN.md §17).
//
// Every churn event ends with one of three remap scopes:
//   - patch:   place only what the event added, onto the standing cut
//              (cheapest; imbalance may accumulate),
//   - partial: keep the standing forest, redo the cut + placement
//              (mid-cost; fixes imbalance, keeps clustering quality as
//              good as the forest),
//   - full:    rebuild the forest from the posting index and recut
//              (most expensive; the canonical from-scratch mapping).
// The policy picks the cheapest scope whose projected stall savings
// beat its estimated pause, with hysteresis so borderline drift cannot
// thrash full recomputes.  Its thresholds are fixed: kPatchImbalanceLimit,
// core::kCutBalanceSlack as the imbalance a full recut restores,
// kFullHysteresisNs, resilience::kMissRateDrift for the drift probe and
// resilience::kRemapPauseNs for the modelled remap pause.
#pragma once

#include <string>

#include "resilience/remap.h"
#include "support/units.h"

namespace mlsc::serve {

enum class RemapScope { kNone, kPatch, kPartial, kFull };

const char* remap_scope_name(RemapScope scope);

/// Patch is good enough while the post-patch imbalance stays under
/// this; beyond it the policy weighs a wider remap.
inline constexpr double kPatchImbalanceLimit = 0.25;

/// A full recompute is not repeated within this window of virtual time
/// unless forced (drift hysteresis).
inline constexpr Nanoseconds kFullHysteresisNs = 10 * kMillisecond;

struct ServePolicy {
  /// Force one scope for every decision (testing / oracle runs);
  /// kAuto applies the cost/benefit rules.
  enum class Force { kAuto, kPatch, kPartial, kFull };
  Force force = Force::kAuto;
};

/// The modelled install pause of a scope: a full remap pauses for
/// resilience::kRemapPauseNs, a partial one for 1/4 of it, a patch for
/// 1/16.
Nanoseconds scope_pause(RemapScope scope);

struct PolicyInputs {
  /// Imbalance if the event were settled with the cheapest scope
  /// (post-patch for registrations, current for departs/faults).
  double imbalance_after_patch = 0.0;
  /// Standing iteration total — converts imbalance into projected time.
  std::uint64_t total_iterations = 0;
  /// Virtual time of the event and of the last full recompute.
  Nanoseconds now = 0;
  Nanoseconds last_full_at = 0;
  bool any_full_yet = false;
  /// A drift probe exceeded resilience::kMissRateDrift.
  bool drift_exceeded = false;
};

struct PolicyVerdict {
  RemapScope scope = RemapScope::kPatch;
  std::string reason;
};

/// Picks the remap scope.  Forced policies short-circuit; otherwise
/// patch wins while imbalance stays within kPatchImbalanceLimit and no
/// drift fired, and the escalation to full requires projected savings
/// (the imbalance over core::kCutBalanceSlack, one nanosecond per
/// iteration) above the full pause plus kFullHysteresisNs since the last
/// full.
PolicyVerdict decide_scope(const ServePolicy& policy,
                           const PolicyInputs& inputs);

}  // namespace mlsc::serve
