// In-memory span recorder for the traced run. The benchmark records a
// span around each call it makes into a layer's public functions (and
// rebuilds the worker-side spans of a served request from the
// timestamps its Response carries), keeps every span in memory, and
// writes them out once at exit. A layer's self time is its span's
// duration minus the part of that interval its child spans cover.
//
// Not synchronized: one thread records at a time. During a serving pass
// that is the collector thread; starting and joining it orders its
// spans with those the driving thread records before and after.
#ifndef PERFBENCH_SPANS_H_
#define PERFBENCH_SPANS_H_

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace perfbench {

/// Steady-clock nanoseconds since the clock's epoch.
inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

inline int64_t ToNs(std::chrono::steady_clock::time_point t) {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             t.time_since_epoch())
      .count();
}

struct Span {
  uint32_t name = 0;       // index into SpanRecorder::names()
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  int32_t parent = -1;     // index of the parent span, -1 for a root
  uint64_t request_id = 0; // spans of one request share it
};

/// Self time of a span over [start, end): its duration minus the union
/// of `children` intervals clipped to it. Children may overlap each
/// other and may extend past the parent.
int64_t SelfTimeNs(int64_t start, int64_t end,
                   std::vector<std::pair<int64_t, int64_t>> children);

/// Per-name aggregate of self times.
struct LayerTime {
  uint64_t spans = 0;
  int64_t total_ns = 0;
  int64_t self_ns = 0;
};

class SpanRecorder {
 public:
  SpanRecorder() = default;

  /// Stable id for `name` (interned on first use).
  uint32_t Intern(std::string_view name);

  /// Appends a finished span; returns its index (usable as a parent).
  int32_t Record(uint32_t name, int64_t start_ns, int64_t end_ns,
                 int32_t parent = -1, uint64_t request_id = 0);

  /// Opens a span now; Close() sets its end. For nesting calls on the
  /// recording thread.
  int32_t Open(uint32_t name, int32_t parent = -1, uint64_t request_id = 0);
  void Close(int32_t index);

  const std::vector<Span>& spans() const { return spans_; }
  size_t size() const { return spans_.size(); }

  /// Self time of every span, indexed like spans().
  std::vector<int64_t> SelfTimes() const;
  /// Spans, total and self time summed per span name.
  std::map<std::string, LayerTime> ByName() const;

  /// Writes {"names": [...], "spans": [[name, start, end, parent, id],
  /// ...]} with times relative to the earliest span. False on I/O error.
  bool WriteJson(const std::string& path) const;

 private:
  std::vector<std::string> names_;
  std::map<std::string, uint32_t, std::less<>> ids_;
  std::vector<Span> spans_;
};

}  // namespace perfbench

#endif  // PERFBENCH_SPANS_H_
