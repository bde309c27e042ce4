#include "serve/policy.h"

#include <sstream>

namespace mlsc::serve {

const char* remap_scope_name(RemapScope scope) {
  switch (scope) {
    case RemapScope::kNone:
      return "none";
    case RemapScope::kPatch:
      return "patch";
    case RemapScope::kPartial:
      return "partial";
    case RemapScope::kFull:
      return "full";
  }
  return "?";
}

Nanoseconds scope_pause(RemapScope scope) {
  switch (scope) {
    case RemapScope::kNone:
      return 0;
    case RemapScope::kPatch:
      return resilience::kRemapPauseNs / 16;
    case RemapScope::kPartial:
      return resilience::kRemapPauseNs / 4;
    case RemapScope::kFull:
      return resilience::kRemapPauseNs;
  }
  return 0;
}

PolicyVerdict decide_scope(const ServePolicy& policy,
                           const PolicyInputs& inputs) {
  PolicyVerdict verdict;
  switch (policy.force) {
    case ServePolicy::Force::kPatch:
      return {RemapScope::kPatch, "forced patch"};
    case ServePolicy::Force::kPartial:
      return {RemapScope::kPartial, "forced partial"};
    case ServePolicy::Force::kFull:
      return {RemapScope::kFull, "forced full"};
    case ServePolicy::Force::kAuto:
      break;
  }

  std::ostringstream reason;
  const double imbalance = inputs.imbalance_after_patch;
  if (!inputs.drift_exceeded && imbalance <= policy.patch_imbalance_limit) {
    reason << "imbalance " << imbalance << " within "
           << policy.patch_imbalance_limit;
    return {RemapScope::kPatch, reason.str()};
  }

  // Projected stall saving of restoring balance: the load excess over
  // the post-remap target, one virtual nanosecond per iteration.
  const double excess =
      imbalance > policy.full_target_imbalance
          ? imbalance - policy.full_target_imbalance
          : 0.0;
  const auto savings = static_cast<Nanoseconds>(
      excess * static_cast<double>(inputs.total_iterations));

  const bool hysteresis_open =
      !inputs.any_full_yet ||
      inputs.now >= inputs.last_full_at + policy.hysteresis_ns;
  if (savings > scope_pause(RemapScope::kFull) && hysteresis_open) {
    reason << (inputs.drift_exceeded ? "drift + " : "")
           << "projected saving " << savings << "ns beats full pause "
           << scope_pause(RemapScope::kFull) << "ns";
    return {RemapScope::kFull, reason.str()};
  }

  reason << (inputs.drift_exceeded ? "drift, " : "")
         << "imbalance " << imbalance << " over "
         << policy.patch_imbalance_limit
         << (hysteresis_open ? "" : " (full in hysteresis)");
  return {RemapScope::kPartial, reason.str()};
}

}  // namespace mlsc::serve
