#pragma once

// Structural validators for the two JSON artifacts the telemetry subsystem
// emits: Chrome trace_event documents (--trace) and metrics snapshots
// (--metrics-json). Used by the telemetry_check CLI tool in CI and by the
// unit tests.

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace insta::telemetry {

struct ValidationResult {
  bool ok = true;
  std::vector<std::string> errors;

  void fail(std::string msg) {
    ok = false;
    errors.push_back(std::move(msg));
  }
};

/// Checks that `text` is a valid Chrome trace_event JSON document: parses,
/// has a traceEvents array, every event carries ph/pid/tid/ts/name, for
/// each (pid, tid) lane the B/E events are balanced (stack discipline) with
/// non-decreasing timestamps, and flow events (ph "s"/"t"/"f") carry an
/// integral id. Fills `num_events` with the event count.
ValidationResult validate_chrome_trace(std::string_view text,
                                       std::size_t* num_events = nullptr);

/// Checks that `text` matches the MetricsSnapshot::to_json schema: top-level
/// counters/gauges/histograms objects, integral non-negative counters, and
/// for each histogram strictly ascending bounds, buckets.size() ==
/// bounds.size() + 1, and count == sum(buckets).
ValidationResult validate_metrics_json(std::string_view text);

/// Checks that `text` matches the `insta_cli whatif --out` schema: a
/// top-level object stamped with the producing engine's generation
/// (non-negative integral) and corner set (array of {name, delay_scale,
/// sigma_scale} objects with valid scales), plus a scenarios array; each
/// scenario carries a string label, a non-negative integral num_deltas, a
/// setup summary object (numeric tns <= 0, numeric wns, non-negative
/// integral violations), an optional hold summary of the same shape,
/// optional setup_by_corner / hold_by_corner arrays of such summaries
/// whose length must equal the corner count, and non-negative integral
/// frontier_pins / early_terminations / endpoints_evaluated / overlay_bytes.
/// Fills `num_scenarios` with the scenario count.
ValidationResult validate_whatif_json(std::string_view text,
                                      std::size_t* num_scenarios = nullptr);

/// Checks that `text` matches the FlightRecorder::to_json schema: a
/// top-level object with a non-negative integral total and an events array
/// whose members carry a non-negative numeric ts_us, a known type string
/// (admit/enqueue/batch/eval/reply/shed), an integral id, and non-negative
/// integral generation/detail. Fills `num_events` with the event count.
ValidationResult validate_flightrec_json(std::string_view text,
                                         std::size_t* num_events = nullptr);

/// Checks that `text` matches the `insta_cli client --load --out` report
/// schema: a top-level object with non-negative integral clients /
/// requests_per_client / ok / shed / rejected / failed / commits counts,
/// non-negative numeric wall_sec and qps, and a latency_ms object whose
/// p50 <= p95 <= p99 <= max are all non-negative numbers.
ValidationResult validate_serve_report(std::string_view text);

}  // namespace insta::telemetry
