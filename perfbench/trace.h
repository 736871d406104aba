// In-memory span recording for the traced perfbench run.
//
// A span is one timed call into a library layer, named "<layer>.<call>"
// (graph.difference, core.newsea, store.journal_append, ...). Spans of one
// request share a request id; a span names the span that caused it as its
// parent. Where a public function calls another (RunDcsGreedy calls
// GreedyPeel), the benchmark re-runs the inner function on the same input
// and records it as a child of the outer span, so a span's self time is its
// duration minus the durations of its children. Spans stay in memory and are
// written out once the run ends.

#ifndef DCS_PERFBENCH_TRACE_H_
#define DCS_PERFBENCH_TRACE_H_

#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

struct Span {
  uint64_t id = 0;
  uint64_t parent = 0;   ///< 0 for a root span
  uint64_t request = 0;  ///< shared by every span of one request
  std::string name;      ///< "<layer>.<call>"
  double start_ms = 0.0; ///< since the tracer was created
  double end_ms = 0.0;

  double duration_ms() const { return end_ms - start_ms; }
  /// The part of `name` before the first '.'.
  std::string_view layer() const;
};

/// Thread-safe span sink.
class Tracer {
 public:
  Tracer() : origin_(Clock::now()) {}

  /// Records [start, end) and returns the new span's id (never 0).
  uint64_t Record(std::string_view name, uint64_t request, uint64_t parent,
                  Clock::time_point start, Clock::time_point end);

  /// Times fn() and records it as a span; returns the span id.
  template <typename Fn>
  uint64_t Time(std::string_view name, uint64_t request, uint64_t parent,
                Fn&& fn) {
    const Clock::time_point start = Clock::now();
    fn();
    return Record(name, request, parent, start, Clock::now());
  }

  std::vector<Span> spans() const;

  /// Writes one JSON object per span; false on I/O failure.
  bool WriteJsonLines(const std::string& path) const;

 private:
  const Clock::time_point origin_;
  mutable std::mutex mutex_;
  std::vector<Span> spans_;
};

/// Aggregates over a finished trace.
struct TraceSummary {
  /// Span durations by span name.
  std::map<std::string, std::vector<double>> durations_ms;
  /// Self time (duration minus child durations, floored at 0) summed per
  /// layer.
  std::map<std::string, double> self_ms_by_layer;
  /// Per root span with children: sum of its direct children's durations
  /// over its own duration.
  std::vector<double> coverage;
  /// Durations of the root spans that carry a request (request id != 0).
  std::vector<double> request_ms;
};

TraceSummary Summarize(const std::vector<Span>& spans);

}  // namespace perfbench

#endif  // DCS_PERFBENCH_TRACE_H_
