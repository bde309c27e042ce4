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
// thrash full recomputes, reusing resilience::RemapPolicy for the
// miss-rate-drift threshold and resilience::kRemapPauseNs for the
// modelled remap pause.
#pragma once

#include <string>

#include "resilience/remap.h"
#include "support/units.h"

namespace mlsc::serve {

enum class RemapScope { kNone, kPatch, kPartial, kFull };

const char* remap_scope_name(RemapScope scope);

struct ServePolicy {
  /// Force one scope for every decision (testing / oracle runs);
  /// kAuto applies the cost/benefit rules.
  enum class Force { kAuto, kPatch, kPartial, kFull };
  Force force = Force::kAuto;

  /// Patch is good enough while the post-patch imbalance stays under
  /// this; beyond it the policy weighs a wider remap.
  double patch_imbalance_limit = 0.25;

  /// Imbalance a full recut is assumed to restore (the balance-aware
  /// cut's slack); the projected saving is the excess over this.
  double full_target_imbalance = 0.10;

  /// Shared with the offline remap-on-failure machinery: the miss-rate
  /// drift threshold and the remap-on-failure switch.
  resilience::RemapPolicy remap;

  /// A full recompute is not repeated within this window unless forced
  /// (drift hysteresis).
  Nanoseconds hysteresis_ns = 10 * kMillisecond;
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
  /// A drift probe exceeded resilience::RemapPolicy::miss_rate_drift.
  bool drift_exceeded = false;
};

struct PolicyVerdict {
  RemapScope scope = RemapScope::kPatch;
  std::string reason;
};

/// Picks the remap scope.  Forced policies short-circuit; otherwise
/// patch wins while imbalance stays within patch_imbalance_limit and no
/// drift fired, and the escalation to full requires projected savings
/// above the full pause plus the hysteresis window since the last full.
PolicyVerdict decide_scope(const ServePolicy& policy,
                           const PolicyInputs& inputs);

}  // namespace mlsc::serve
