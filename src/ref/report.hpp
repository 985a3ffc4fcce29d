#pragma once

#include <string>
#include <vector>

#include "ref/golden_sta.hpp"

namespace insta::ref {

/// One stage of a traced timing path.
struct PathStage {
  timing::ArcId arc = timing::kNullArc;  ///< kNullArc on the startpoint row
  netlist::PinId pin = netlist::kNullPin;  ///< pin reached by this stage
  netlist::RiseFall rf = netlist::RiseFall::kRise;  ///< transition at pin
  double incr_mu = 0.0;     ///< arc delay mean, ps (0 on the startpoint row)
  double incr_sigma = 0.0;  ///< arc delay sigma, ps
  double arrival = 0.0;     ///< cumulative corner arrival at pin, ps
};

/// A fully resolved worst path of one endpoint: the slack-deciding
/// startpoint, the stage-by-stage trace, and the required-time breakdown.
struct TimingPath {
  timing::EndpointId endpoint = timing::kNullEndpoint;
  timing::StartpointId startpoint = timing::kNullStartpoint;
  bool hold = false;  ///< true for a min-mode (hold) path
  double slack = 0.0;
  double arrival = 0.0;       ///< data arrival corner at the endpoint
  double base_required = 0.0; ///< period + early capture - setup (or PO req);
                              ///< late capture + hold for hold paths
  double cppr_credit = 0.0;
  double exception_shift = 0.0;  ///< multicycle adjustment
  std::vector<PathStage> stages;  ///< startpoint first, endpoint last
};

/// Traces the slack-deciding path of one endpoint through the golden
/// engine's arrival sets. Returns an empty path (no stages) for
/// unconstrained endpoints.
[[nodiscard]] TimingPath trace_worst_path(const GoldenSta& sta,
                                          timing::EndpointId ep);

/// Up to `nworst` distinct paths of one endpoint, ascending by slack: one
/// per (startpoint, transition) arrival entry, i.e. the per-startpoint
/// path diversity the Top-K machinery retains (report_timing -nworst with
/// unique startpoints). Only the entries the engine's pruning window keeps
/// are traced: the slack-deciding path is always among them, but a pruned
/// engine (the default) may return fewer than `nworst` paths where an
/// unpruned one (GoldenOptions::prune_window = infinity) returns more.
[[nodiscard]] std::vector<TimingPath> trace_paths(const GoldenSta& sta,
                                                  timing::EndpointId ep,
                                                  int nworst);

/// The `count` worst endpoints' paths, sorted by ascending slack — the
/// equivalent of `report_timing -max_paths N` with one path per endpoint.
[[nodiscard]] std::vector<TimingPath> worst_paths(const GoldenSta& sta,
                                                  int count);

/// Traces the hold-slack-deciding (earliest) path of one endpoint. The
/// golden engine must have been built with GoldenOptions::enable_hold.
[[nodiscard]] TimingPath trace_worst_hold_path(const GoldenSta& sta,
                                               timing::EndpointId ep);

/// Renders a path in a PrimeTime-report-like text block.
[[nodiscard]] std::string format_path(const GoldenSta& sta,
                                      const TimingPath& path);

}  // namespace insta::ref
