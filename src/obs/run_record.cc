#include "obs/run_record.h"

#include <fstream>
#include <iostream>
#include <ostream>

#include "obs/metrics.h"
#include "support/string_util.h"

namespace mlsc::obs {

void RunRecord::write_json(std::ostream& out) const {
  out << "{\"schema\": ";
  write_json_string(out, kRunRecordSchema);
  out << ",\n \"binary\": ";
  write_json_string(out, binary);
  out << ",\n \"metadata\": {\"machine\": ";
  write_json_string(out, machine);
  out << ", \"apps\": [";
  for (std::size_t i = 0; i < apps.size(); ++i) {
    if (i != 0) out << ", ";
    write_json_string(out, apps[i]);
  }
  out << "], \"hardware_threads\": " << hardware_threads
      << ", \"build_type\": ";
  write_json_string(out, build_type);
  out << ", \"repetitions\": " << repetitions;
  if (!git_sha.empty()) {
    out << ", \"git_sha\": ";
    write_json_string(out, git_sha);
  }
  if (has_seed) out << ", \"seed\": " << seed;
  out << "},\n \"phases\": [";
  for (std::size_t i = 0; i < phases.size(); ++i) {
    if (i != 0) out << ",";
    out << "\n  {\"name\": ";
    write_json_string(out, phases[i].first);
    out << ", \"wall_ms\": " << json_number(phases[i].second) << "}";
  }
  out << (phases.empty() ? "]" : "\n ]") << ",\n \"tables\": [";
  for (std::size_t i = 0; i < tables.size(); ++i) {
    if (i != 0) out << ",";
    out << "\n  ";
    tables[i].second.print_json(out, tables[i].first);
  }
  out << (tables.empty() ? "]" : "\n ]");
  if (!insight.empty()) {
    out << ",\n \"insight\": ";
    write_insight_json(out, insight);
  }
  if (include_metrics) {
    out << ",\n \"metrics\": ";
    Registry::global().write_json(out);
  }
  out << "}\n";
}

bool RunRecord::write_file(const std::string& path) const {
  std::ofstream out(path);
  if (!out) {
    std::cerr << "[obs] cannot open " << path << " for writing\n";
    return false;
  }
  write_json(out);
  return out.good();
}

}  // namespace mlsc::obs
