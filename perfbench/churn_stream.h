// Seeded churn stream for the `churn` workload: a standing set of
// registrations (set-up) followed by a timed stream of register / depart
// / scale / fault events, rendered as an `mlsc-serve-event-v1` JSON-lines
// document.  The service only ever sees what serve::parse_event_stream
// reads back from that text.
//
// The stream is replacement churn: the standing set holds one instance
// per slot, each slot a fixed Table 2 app, and every departure of a
// slot's instance is followed by the arrival of a new instance of the same
// app, requesting the slot's fixed client count.  Rounds replace the
// slots in order, at fixed virtual gaps, so the policy makes the same
// decisions on the same events for every seed.  The seed picks which slot
// each scale event grows (and the next one shrinks back) and which client
// each fault fails (and the next one recovers).  Different seeds thus
// differ in their inputs but carry the same tagging and mapping load.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>

namespace perfbench {

struct ChurnShape {
  /// Standing slots: the eight Table 2 apps, then the first four again
  /// (about 12k standing chunks at 1024 chunks per instance).
  std::size_t slots = 12;
  /// Rounds of replacements; each replaces every slot once.
  std::size_t rounds = 7;
  /// Replacements per block; each block also holds one scale event
  /// (after half of its replacements) and one fault event (at its end).
  std::size_t replacements_per_block = 4;
  /// Size factor of every instance.  Each instance perturbs it by a
  /// millionth per id, so instances never share a data key and every
  /// arrival is tagged.
  double base_size_factor = 0.0625;
  /// Clients of the machine the fault events address.
  std::uint32_t clients = 64;
  /// Virtual gap between events.  With the policy's 10 ms full
  /// hysteresis, 1.5 ms makes about one settle in seven a full
  /// recompute, so the p95 settle time lies well inside the full ones.
  std::uint64_t mean_gap_us = 1500;

  /// Timed events: a depart and a register per replacement, plus one
  /// scale and one fault per block.
  std::size_t events() const {
    const std::size_t replacements = slots * rounds;
    return 2 * replacements + 2 * (replacements / replacements_per_block);
  }
};

/// The whole stream as JSON lines: a schema header, `shape.slots`
/// registrations at t = 0, then `shape.events()` timed events.  The same
/// seed and shape give a byte-identical document.
std::string churn_stream_text(std::uint64_t seed, const ChurnShape& shape);

}  // namespace perfbench
