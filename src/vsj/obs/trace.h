// Scoped trace spans and the Chrome trace_event collector.
//
// TraceSpan is the one-line instrumentation primitive for "how long did
// this region take": constructed with a metric name, it reads the steady
// clock on entry and on scope exit records the duration into the
// registry histogram of that name (when metrics are enabled) and appends
// a complete event to the TraceCollector (when tracing is enabled). With
// both facilities off the constructor is a pair of relaxed loads and the
// destructor a branch — cheap enough for per-request and per-table-build
// granularity (per-pair hot loops use post-loop bulk counters instead;
// see core/stratified_sampling.h).
//
// The collector buffers completed spans ({name, start, duration, small
// thread id}) behind one mutex — spans are coarse, so contention is not a
// concern — up to a fixed cap, counting anything beyond it as dropped,
// and serializes them as Chrome trace_event JSON ("ph":"X" complete
// events, microsecond timestamps) loadable in chrome://tracing or Perfetto
// for flame-graph profiling of a request. Span names must be string
// literals (the collector stores the pointer).

#ifndef VSJ_OBS_TRACE_H_
#define VSJ_OBS_TRACE_H_

#include <atomic>
#include <cstdint>
#include <iosfwd>
#include <mutex>
#include <string>
#include <vector>

namespace vsj::obs {

/// True when span events are being collected (independent of
/// MetricsEnabled — a trace can run with metrics off and vice versa).
bool TracingEnabled();

/// Turns span collection on or off.
void EnableTracing(bool enabled);

/// Bounded buffer of completed spans, serializable as Chrome trace JSON.
class TraceCollector {
 public:
  /// Event cap; spans beyond it are counted in dropped() and discarded.
  static constexpr size_t kMaxEvents = 1u << 20;

  struct Event {
    const char* name;   // string literal supplied by the span
    uint64_t start_ns;  // MonotonicNowNs() at span entry
    uint64_t dur_ns;
    uint32_t tid;  // small per-thread id, stable within the process
  };

  static TraceCollector& Global();

  void Append(const char* name, uint64_t start_ns, uint64_t dur_ns);

  size_t size() const;
  uint64_t dropped() const;
  void Clear();

  /// Serializes the buffered events as a Chrome trace_event JSON document.
  void WriteChromeTrace(std::ostream& os) const;

  /// File wrapper; returns false (with `*error` filled) when the file
  /// cannot be written.
  bool WriteChromeTraceFile(const std::string& path,
                            std::string* error) const;

 private:
  mutable std::mutex mutex_;
  std::vector<Event> events_;
  uint64_t dropped_ = 0;
};

/// RAII scoped timer: records scope duration (ns) into the registry
/// histogram `name` and/or the trace collector. `name` must outlive the
/// process (use a string literal).
class TraceSpan {
 public:
  explicit TraceSpan(const char* name);
  ~TraceSpan() { End(); }

  TraceSpan(const TraceSpan&) = delete;
  TraceSpan& operator=(const TraceSpan&) = delete;

  /// Ends the span early (idempotent).
  void End();

 private:
  const char* name_ = nullptr;
  uint64_t start_ns_ = 0;
  bool armed_ = false;
};

}  // namespace vsj::obs

#endif  // VSJ_OBS_TRACE_H_
