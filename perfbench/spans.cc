#include "spans.h"

#include <cstdio>
#include <fstream>

namespace perfbench {

SpanLog::Scope::Scope(SpanLog* log, const char* name) : log_(log) {
  if (log_ == nullptr) return;
  Span span;
  span.name = name;
  span.parent = log_->open_.empty()
                    ? -1
                    : static_cast<std::int64_t>(log_->open_.back());
  span.start_ns = now_ns();
  index_ = log_->spans_.size();
  log_->spans_.push_back(std::move(span));
  log_->open_.push_back(index_);
}

SpanLog::Scope::~Scope() {
  if (log_ == nullptr) return;
  log_->spans_[index_].end_ns = now_ns();
  log_->open_.pop_back();
}

std::map<std::string, LayerTime> SpanLog::layers() const {
  std::vector<std::uint64_t> child_ns(spans_.size(), 0);
  for (const Span& span : spans_) {
    if (span.parent >= 0) {
      child_ns[static_cast<std::size_t>(span.parent)] +=
          span.end_ns - span.start_ns;
    }
  }
  std::map<std::string, LayerTime> out;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const std::uint64_t dur = spans_[i].end_ns - spans_[i].start_ns;
    LayerTime& layer = out[spans_[i].name];
    layer.total_ms += static_cast<double>(dur) * 1e-6;
    layer.self_ms += static_cast<double>(dur - child_ns[i]) * 1e-6;
    layer.calls += 1;
  }
  return out;
}

bool SpanLog::write_chrome_trace(const std::string& path) const {
  std::ofstream out(path);
  if (!out) return false;
  const std::uint64_t origin = spans_.empty() ? 0 : spans_.front().start_ns;
  out << "{\"displayTimeUnit\": \"ns\", \"traceEvents\": [";
  char buf[160];
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::snprintf(buf, sizeof buf,
                  "\"ph\": \"X\", \"pid\": 0, \"tid\": 0, \"ts\": %.3f, "
                  "\"dur\": %.3f}",
                  static_cast<double>(s.start_ns - origin) * 1e-3,
                  static_cast<double>(s.end_ns - s.start_ns) * 1e-3);
    out << (i == 0 ? "\n" : ",\n") << "{\"name\": \"" << s.name << "\", "
        << buf;
  }
  out << "\n]}\n";
  return out.good();
}

}  // namespace perfbench
