#pragma once

// Phase-scoped tracing with Chrome trace_event export.
//
// TraceSpan is an RAII scope: construction samples the monotonic clock,
// destruction records a {name, begin, end, depth, arg} span into the
// calling thread's ring buffer. Rings are fixed-capacity and overwrite
// their oldest spans, so tracing never allocates on the hot path after the
// first span of a thread and long runs keep the most recent window.
//
// chrome_trace_json() renders everything recorded so far as a Chrome
// "trace_event" JSON document (balanced B/E duration events plus thread
// metadata), loadable in chrome://tracing and https://ui.perfetto.dev.
//
// flow() records standalone flow points ("s"/"t"/"f" events named "req",
// keyed by a 64-bit id — the serve layer uses request ids) that viewers
// render as arrows between the slices enclosing them, parent-linking a
// request's span on its session thread to the batch-leader and evaluation
// spans that served it on other threads.
//
// Tracing is off until set_enabled(true); a disabled TraceSpan costs one
// relaxed atomic load.

#include <atomic>
#include <cstdint>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "util/mutex.hpp"
#include "util/thread_annotations.hpp"

namespace insta::telemetry {

/// Sentinel for "span has no numeric argument".
inline constexpr std::int64_t kNoTraceArg =
    std::numeric_limits<std::int64_t>::min();

class TraceSpan;

class Tracer {
 public:
  /// Spans retained per thread; older spans are overwritten.
  static constexpr std::size_t kRingCapacity = 1U << 15U;

  /// Process-wide tracer used by TraceSpan and the INSTA_TRACE_SCOPE macro.
  static Tracer& global();

  void set_enabled(bool on) { enabled_.store(on, std::memory_order_relaxed); }
  [[nodiscard]] bool enabled() const {
    return enabled_.load(std::memory_order_relaxed);
  }

  /// Discards all recorded spans (ring buffers stay allocated).
  void clear();

  /// Number of spans lost to ring-buffer overwrite since the last clear().
  [[nodiscard]] std::uint64_t dropped() const;

  /// Records a flow point binding the current instant (inside whatever
  /// span is open on this thread) to flow `id`. `phase` is the Chrome flow
  /// phase: 's' starts the flow, 't' steps it, 'f' finishes it. No-op when
  /// tracing is disabled.
  void flow(std::uint64_t id, char phase);

  /// Renders the recorded spans as a Chrome trace_event JSON document.
  [[nodiscard]] std::string chrome_trace_json() const;

  /// The newest `max_spans` completed spans across all threads as a small
  /// introspection document: {"dropped": N, "spans": [{"name", "tid",
  /// "ts_us", "dur_us", "depth", "arg"?}, ...]} in begin order. Flow
  /// points are omitted (they carry no duration).
  [[nodiscard]] std::string spans_json(std::size_t max_spans) const;

  /// Writes chrome_trace_json() to a file; false on I/O failure.
  bool write_chrome_trace(const std::string& path) const;

  /// Monotonic nanoseconds since the first use of the tracer — the shared
  /// epoch of trace spans and flight-recorder events.
  [[nodiscard]] static std::uint64_t now_ns();

 private:
  friend class TraceSpan;

  struct SpanRecord {
    const char* name = nullptr;  ///< must point at a string literal
    std::uint64_t begin_ns = 0;
    std::uint64_t end_ns = 0;
    std::int64_t arg = kNoTraceArg;
    std::int32_t depth = 0;
    std::uint64_t flow_id = 0;  ///< meaningful when flow_phase != 0
    char flow_phase = 0;        ///< 0: span; 's'/'t'/'f': flow point
  };

  struct Ring {
    mutable util::Mutex mutex{"telemetry.ring",
                              util::lockrank::kTelemetryRing};
    /// Capacity kRingCapacity once touched.
    std::vector<SpanRecord> spans INSTA_GUARDED_BY(mutex);
    std::uint64_t total INSTA_GUARDED_BY(mutex) = 0;  ///< spans ever recorded
    /// Written once under Tracer::mutex_ before the ring is published and
    /// immutable afterwards (a nested struct cannot name the outer class's
    /// mutex in an annotation, so this stays prose).
    int tid = 0;
  };

  Tracer() = default;

  Ring* ring();
  void record(const SpanRecord& rec);

  inline static thread_local Ring* t_ring_ = nullptr;

  mutable util::Mutex mutex_{"telemetry.tracer",
                             util::lockrank::kTelemetryTrace};
  std::vector<std::unique_ptr<Ring>> rings_ INSTA_GUARDED_BY(mutex_);
  std::atomic<bool> enabled_{false};
};

/// RAII trace scope. `name` must be a string literal (it is stored by
/// pointer). The optional `arg` is exported as args.v (e.g. a level index).
class TraceSpan {
 public:
  explicit TraceSpan(const char* name, std::int64_t arg = kNoTraceArg);
  TraceSpan(const TraceSpan&) = delete;
  TraceSpan& operator=(const TraceSpan&) = delete;
  ~TraceSpan();

 private:
  const char* name_ = nullptr;
  std::uint64_t begin_ns_ = 0;
  std::int64_t arg_ = kNoTraceArg;
  std::int32_t depth_ = 0;
  bool active_ = false;
};

}  // namespace insta::telemetry

#define INSTA_TELEMETRY_CONCAT_INNER(a, b) a##b
#define INSTA_TELEMETRY_CONCAT(a, b) INSTA_TELEMETRY_CONCAT_INNER(a, b)

/// Declares an RAII trace span covering the rest of the enclosing scope.
/// Usage: INSTA_TRACE_SCOPE("engine.forward");
///        INSTA_TRACE_SCOPE("engine.level", static_cast<std::int64_t>(l));
#define INSTA_TRACE_SCOPE(...)                                        \
  const ::insta::telemetry::TraceSpan INSTA_TELEMETRY_CONCAT(         \
      insta_trace_span_, __LINE__) {                                  \
    __VA_ARGS__                                                       \
  }
