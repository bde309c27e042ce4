// Benchmark-owned spans: the traced run opens one around each public
// call into a layer, keeps them in memory, and writes them as a Chrome
// trace_event document when the run ends.  Single-threaded: only the
// benchmark's own thread opens spans.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

inline std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

inline double seconds_since(std::uint64_t start_ns) {
  return static_cast<double>(now_ns() - start_ns) * 1e-9;
}

struct LayerTime {
  double total_ms = 0.0;  // sum of span durations
  double self_ms = 0.0;   // minus the time covered by direct children
  std::size_t calls = 0;
};

class SpanLog {
 public:
  /// Closes the span it opened when destroyed.  A null log records
  /// nothing, so untraced code paths share the traced ones' structure.
  class Scope {
   public:
    Scope(SpanLog* log, const char* name);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    SpanLog* log_;
    std::size_t index_ = 0;
  };

  /// Per-name totals and self times over every closed span.
  std::map<std::string, LayerTime> layers() const;

  /// Writes the spans as {"traceEvents": [...]}; false on I/O failure.
  bool write_chrome_trace(const std::string& path) const;

 private:
  struct Span {
    std::string name;
    std::int64_t parent = -1;
    std::uint64_t start_ns = 0;
    std::uint64_t end_ns = 0;
  };

  std::vector<Span> spans_;
  std::vector<std::size_t> open_;
};

}  // namespace perfbench
