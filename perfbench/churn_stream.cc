#include "churn_stream.h"

#include <sstream>
#include <string>
#include <vector>

#include "serve/event.h"
#include "support/rng.h"
#include "support/units.h"
#include "workloads/registry.h"

namespace perfbench {

namespace {

using mlsc::serve::EventKind;
using mlsc::serve::ServeEvent;

}  // namespace

std::string churn_stream_text(std::uint64_t seed, const ChurnShape& shape) {
  mlsc::Rng rng(seed);
  const std::vector<std::string> names = mlsc::workloads::workload_names();
  std::vector<std::string> slot_id(shape.slots);
  std::size_t next_id = 0;
  // Each slot requests a fixed client count, so the stream ends at the
  // same cut target whatever the seed.
  auto slot_clients = [](std::size_t slot) {
    return static_cast<std::uint32_t>(2 + slot % 3);
  };
  std::ostringstream out;
  out << mlsc::serve::stream_header_json(seed, "paper_default") << "\n";

  mlsc::Nanoseconds at = 0;
  auto emit = [&](ServeEvent e) {
    e.at = at;
    out << mlsc::serve::event_to_json(e) << "\n";
  };
  auto arrive = [&](std::size_t slot) {
    ServeEvent e;
    e.kind = EventKind::kRegister;
    e.id = std::to_string(next_id);
    e.id.insert(0, 1, 'w');
    e.workload = names[slot % names.size()];
    e.size_factor = shape.base_size_factor *
                    (1.0 + static_cast<double>(next_id) * 1e-6);
    e.clients = slot_clients(slot);
    slot_id[slot] = e.id;
    ++next_id;
    emit(e);
  };
  for (std::size_t slot = 0; slot < shape.slots; ++slot) arrive(slot);

  // Fixed gaps keep at_ms exact in the JSON round trip and make the
  // policy's decisions fall on the same events for every seed.
  auto advance = [&] { at += shape.mean_gap_us * mlsc::kMicrosecond; };
  std::int64_t failed_client = -1;
  std::int64_t scaled_slot = -1;
  const std::size_t replacements = shape.slots * shape.rounds;
  for (std::size_t r = 0; r < replacements; ++r) {
    const std::size_t slot = r % shape.slots;
    advance();
    ServeEvent depart;
    depart.kind = EventKind::kDepart;
    depart.id = slot_id[slot];
    emit(depart);
    advance();
    arrive(slot);

    const std::size_t in_block = r % shape.replacements_per_block;
    if (in_block == shape.replacements_per_block / 2 - 1) {
      // Scales alternate: a random slot grows by two clients, then
      // shrinks back.
      advance();
      ServeEvent e;
      e.kind = EventKind::kScale;
      const bool back = scaled_slot >= 0;
      if (!back) {
        scaled_slot = static_cast<std::int64_t>(rng.next_below(shape.slots));
      }
      const auto scaled = static_cast<std::size_t>(scaled_slot);
      e.id = slot_id[scaled];
      e.clients = slot_clients(scaled) + (back ? 0 : 2);
      if (back) scaled_slot = -1;
      emit(e);
    } else if (in_block == shape.replacements_per_block - 1) {
      // Faults alternate: fail a random client, then recover it.
      advance();
      ServeEvent e;
      e.kind = EventKind::kFault;
      const bool recover = failed_client >= 0;
      if (!recover) {
        failed_client =
            static_cast<std::int64_t>(rng.next_below(shape.clients));
      }
      e.fault_spec = std::string(recover ? "recover@" : "fail@") +
                     std::to_string(at) + ":l1." +
                     std::to_string(failed_client);
      if (recover) failed_client = -1;
      emit(e);
    }
  }
  return out.str();
}

}  // namespace perfbench
