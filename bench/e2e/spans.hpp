#pragma once

// Bench-side span recorder of the traced run. Spans wrap the benchmark's own
// calls into each layer (the program's telemetry Tracer is not used), live in
// memory, and are written as a Chrome trace when the run ends. A span's name
// is "<layer>.<what>"; its self time is its duration minus the durations of
// its direct children, so the self times of one tree sum to the root's
// duration and the root's own self time is the time no layer accounts for.

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace insta::e2e {

struct Result;

class Spans {
 public:
  struct Span {
    std::string name;
    std::int64_t start_ns = 0;
    std::int64_t end_ns = 0;
    std::int32_t parent = -1;  ///< index of the enclosing span, -1 for roots
    std::uint64_t req = 0;     ///< request id on the wire (0: none)
    std::int32_t track = 0;    ///< Chrome trace thread lane
  };

  explicit Spans(bool enabled) : enabled_(enabled) {}
  Spans(const Spans&) = delete;
  Spans& operator=(const Spans&) = delete;

  [[nodiscard]] bool enabled() const { return enabled_; }

  /// RAII span around one call, nested under the innermost open Scope. A
  /// no-op (no clock read) when tracing is off.
  class Scope {
   public:
    Scope(Spans& spans, const char* name);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Spans* spans_;
    std::int32_t index_ = -1;
  };

  /// Records a finished span with explicit times (wire requests, whose
  /// server-side parts come from the reply). Returns its index for use as a
  /// child's parent; -1 when tracing is off.
  std::int32_t add(std::string name, std::int64_t start_ns,
                   std::int64_t end_ns, std::int32_t parent, std::uint64_t req,
                   std::int32_t track);

  /// Self time in ms per span name, summed over every tree whose root span
  /// is named `root`, and the number of such roots.
  struct Breakdown {
    std::map<std::string, double> self_ms;
    std::size_t roots = 0;
    double overrun_ms = 0.0;  ///< child time outside its parent (should be 0)
  };
  [[nodiscard]] Breakdown breakdown(const std::string& root) const;

  /// Writes every span as a Chrome trace_event document. False on I/O error.
  bool write_chrome(const std::string& path) const;

 private:
  [[nodiscard]] std::int32_t root_of(std::int32_t i) const;

  bool enabled_;
  std::vector<Span> spans_;
  std::vector<std::int32_t> open_;  ///< stack of open Scope indices
};

/// Sets the set-up layer metrics (gen.build_s ... setup.unaccounted_s) from
/// the "bench.setup" trees: mean self time per set-up, seconds.
void report_setup_layers(const Spans& spans, Result& res);

/// Checks that the self times of the trees rooted at `root` sum to
/// `timed_ms`, the same ops timed by the workload's own clock reads, within
/// 1%, with no child overrunning its parent.
void check_layers_sum(const Spans& spans, const std::string& root,
                      double timed_ms, Result& res);

/// Sets `<span>_ms` per op for each of `layers` and op.unaccounted_ms (the
/// root's own self time) from the trees rooted at `root`, then runs
/// check_layers_sum against `timed_ms`.
void report_op_layers(const Spans& spans, const std::string& root,
                      const std::vector<std::string>& layers, double timed_ms,
                      Result& res);

}  // namespace insta::e2e
