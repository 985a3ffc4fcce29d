#pragma once

#include <span>
#include <string>

#include "analysis/diagnostics.hpp"
#include "core/engine.hpp"
#include "telemetry/metrics.hpp"

namespace insta::analysis {

/// Audits one pin/transition's Top-K arrival list against the invariants
/// Algorithm 2 maintains: at most `k` entries, corner arrivals sorted
/// descending, startpoint tags unique and non-negative, all values finite,
/// sigmas non-negative. Emits "topk-invariant" diagnostics into `out`.
/// Exposed separately from audit_engine so tests can feed crafted lists.
void audit_topk_entries(std::span<const core::Engine::TopKEntry> entries,
                        int k, const std::string& where, LintReport& out);

/// Post-propagation audit hook: sweeps every pin/transition Top-K store of
/// an Engine on which run_forward() has completed, plus the endpoint slack
/// array (NaN slacks). Cheap relative to propagation; run it after forward
/// passes in debug flows to catch merge-kernel corruption at the source.
[[nodiscard]] LintReport audit_engine(const core::Engine& engine);

/// Audits a telemetry snapshot for runtime anomalies: a forward pass that
/// processed no pins, merge kernels whose Top-K filter never pruned,
/// endpoint evaluation without a single CPPR lookup, and thread-pool
/// workers idle more than half the time. Emits "telemetry-anomaly"
/// diagnostics at Severity::kInfo — these flag performance or
/// configuration oddities, not correctness violations, and must not trip
/// strict lint gates. No-op on an empty snapshot (nothing recorded yet).
[[nodiscard]] LintReport audit_metrics(
    const telemetry::MetricsSnapshot& snapshot);

}  // namespace insta::analysis
