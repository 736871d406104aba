#include "trace.h"

#include <algorithm>
#include <cstdio>
#include <unordered_map>

namespace perfbench {

std::string_view Span::layer() const {
  const std::string_view full(name);
  return full.substr(0, full.find('.'));
}

uint64_t Tracer::Record(std::string_view name, uint64_t request,
                        uint64_t parent, Clock::time_point start,
                        Clock::time_point end) {
  using Ms = std::chrono::duration<double, std::milli>;
  Span span;
  span.parent = parent;
  span.request = request;
  span.name = std::string(name);
  span.start_ms = Ms(start - origin_).count();
  span.end_ms = Ms(end - origin_).count();
  std::lock_guard<std::mutex> lock(mutex_);
  span.id = spans_.size() + 1;
  spans_.push_back(std::move(span));
  return spans_.back().id;
}

std::vector<Span> Tracer::spans() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return spans_;
}

bool Tracer::WriteJsonLines(const std::string& path) const {
  std::FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) return false;
  for (const Span& span : spans()) {
    std::fprintf(out,
                 "{\"id\":%llu,\"parent\":%llu,\"request\":%llu,"
                 "\"name\":\"%s\",\"start_ms\":%.6f,\"end_ms\":%.6f}\n",
                 static_cast<unsigned long long>(span.id),
                 static_cast<unsigned long long>(span.parent),
                 static_cast<unsigned long long>(span.request),
                 span.name.c_str(), span.start_ms, span.end_ms);
  }
  return std::fclose(out) == 0;
}

TraceSummary Summarize(const std::vector<Span>& spans) {
  std::unordered_map<uint64_t, double> child_ms;  // by parent id
  for (const Span& span : spans) {
    if (span.parent != 0) child_ms[span.parent] += span.duration_ms();
  }
  TraceSummary summary;
  for (const Span& span : spans) {
    summary.durations_ms[span.name].push_back(span.duration_ms());
    const auto children = child_ms.find(span.id);
    const double covered = children == child_ms.end() ? 0.0 : children->second;
    summary.self_ms_by_layer[std::string(span.layer())] +=
        std::max(0.0, span.duration_ms() - covered);
    if (span.parent == 0 && span.request != 0) {
      summary.request_ms.push_back(span.duration_ms());
      if (covered > 0.0 && span.duration_ms() > 0.0) {
        summary.coverage.push_back(covered / span.duration_ms());
      }
    }
  }
  return summary;
}

}  // namespace perfbench
