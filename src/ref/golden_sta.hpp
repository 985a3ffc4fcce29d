#pragma once

#include <limits>
#include <memory>
#include <optional>
#include <span>
#include <vector>

#include "timing/clock.hpp"
#include "timing/constraints.hpp"
#include "timing/delay_calc.hpp"
#include "timing/graph.hpp"
#include "timing/types.hpp"
#include "util/check.hpp"

namespace insta::ref {

/// One startpoint-tagged statistical arrival at a pin.
struct ArrivalEntry {
  timing::StartpointId sp = timing::kNullStartpoint;
  double mu = 0.0;
  double sigma = 0.0;
  double corner = 0.0;  ///< mu + nsigma*sigma, the propagated "arrival time"
};

/// Options of the golden engine.
struct GoldenOptions {
  /// Arrival-entry pruning. Unset (the default): the window derived from
  /// the design's own clock analysis and suffix sigmas drops an entry only
  /// when a kept entry of another startpoint bounds it at every endpoint it
  /// reaches, through the same-startpoint merges on the way, so every setup
  /// and hold slack is the unpruned engine's (DESIGN.md §6). A value:
  /// entries whose corner is more than this below a pin's worst corner are
  /// dropped, which can lose slack-deciding entries under CPPR or timing
  /// exceptions; infinity disables pruning (the unpruned engine).
  std::optional<double> prune_window;
  /// Also propagate early (minimum) arrivals and evaluate hold checks —
  /// the min-mode analysis a signoff engine runs alongside setup. Off by
  /// default: the paper's experiments are setup-only.
  bool enable_hold = false;
};

/// Slack value used for unconstrained endpoints (no arrival reaches them).
inline constexpr double kNoArrivalSlack = std::numeric_limits<double>::infinity();

/// The golden reference STA engine — this repository's stand-in for the
/// paper's Synopsys PrimeTime (signoff mode, POCV enabled).
///
/// It propagates *exact* per-startpoint statistical arrivals (a set of
/// startpoint-tagged Gaussians per pin and transition), computes CPPR
/// credits at the clock-tree LCA of each launch/capture pair, applies
/// timing exceptions, and reports endpoint slacks, WNS and TNS.
///
/// It also plays PrimeTime's other roles in the experiments:
///   * update_full        — a full `update_timing`,
///   * update_incremental — incremental `update_timing` after arc-delay
///     changes (cone re-propagation with early termination),
///   * together with DelayCalculator::estimate_eco, the delay re-annotation
///     source for the INSTA engine.
///
/// The INSTA engine (src/core) initializes itself exclusively from this
/// engine's public accessors: arc delays, startpoint initial arrivals,
/// endpoint base required times, clock-tree CPPR tables, and exceptions —
/// the "one-time initialization" of the paper's Figure 2.
class GoldenSta {
 public:
  /// Binds the engine to a graph, constraints and a delay store. All three
  /// must outlive the engine; `delays` is owned by the caller and shared
  /// with the delay calculator. Call update_full() before reading results.
  GoldenSta(const timing::TimingGraph& graph,
            const timing::Constraints& constraints, timing::ArcDelays& delays,
            GoldenOptions options = {});

  // ---- timing updates -----------------------------------------------------

  /// Full timing update: rebuilds the clock analysis, re-propagates every
  /// pin, recomputes every endpoint slack.
  void update_full();

  /// Incremental update after the given arcs changed delay. Re-propagates
  /// only the affected fanout cone, stopping where arrival sets are
  /// unchanged. Falls back to update_full() if a clock-network arc changed.
  void update_incremental(std::span<const timing::ArcId> changed);

  /// Writes the deltas into the delay store, then updates incrementally.
  void annotate_and_update(std::span<const timing::ArcDelta> deltas);

  // ---- results --------------------------------------------------------------

  /// Slack of one endpoint, ps (kNoArrivalSlack if unconstrained).
  [[nodiscard]] double endpoint_slack(timing::EndpointId ep) const {
    return slack_[static_cast<std::size_t>(ep)];
  }

  /// All endpoint slacks, indexed by endpoint id.
  [[nodiscard]] std::span<const double> endpoint_slacks() const { return slack_; }

  /// Worst negative slack: the minimum endpoint slack, ps.
  [[nodiscard]] double wns() const;

  /// Total negative slack: the sum of all negative endpoint slacks, ps.
  [[nodiscard]] double tns() const;

  /// Number of endpoints with negative slack.
  [[nodiscard]] int num_violations() const;

  /// Arrival entries at a pin/transition, sorted by descending corner.
  [[nodiscard]] std::span<const ArrivalEntry> arrivals(
      netlist::PinId pin, netlist::RiseFall rf) const {
    return arr_[slot(pin, rf)];
  }

  // ---- hold (min-mode) results; valid when options.enable_hold ------------

  /// Early arrival entries (corner = mu - nsigma*sigma, ascending).
  [[nodiscard]] std::span<const ArrivalEntry> early_arrivals(
      netlist::PinId pin, netlist::RiseFall rf) const {
    return arr_early_[slot(pin, rf)];
  }

  /// Hold slack of one endpoint, ps (kNoArrivalSlack if unconstrained or
  /// hold analysis is disabled).
  [[nodiscard]] double hold_slack(timing::EndpointId ep) const {
    return hold_slack_[static_cast<std::size_t>(ep)];
  }

  /// All hold slacks, indexed by endpoint id.
  [[nodiscard]] std::span<const double> hold_slacks() const { return hold_slack_; }

  /// Worst hold slack, ps (0 if no finite hold slack).
  [[nodiscard]] double whs() const;

  /// Total negative hold slack, ps.
  [[nodiscard]] double ths() const;

  /// Number of endpoints with negative hold slack.
  [[nodiscard]] int num_hold_violations() const;

  /// The worst (maximum) arrival corner at a pin over both transitions;
  /// -infinity if nothing arrives.
  [[nodiscard]] double worst_arrival(netlist::PinId pin) const;

  // ---- initialization data for the INSTA engine (Figure 2) -----------------

  /// Startpoint initial arrival distribution, per transition.
  struct SpInit {
    std::array<double, 2> mu{0.0, 0.0};
    std::array<double, 2> sigma{0.0, 0.0};
  };

  /// Initial (launch) arrival of a startpoint: clock arrival + clk->Q for
  /// FF launches, the constrained input arrival for primary inputs.
  [[nodiscard]] SpInit sp_init(timing::StartpointId sp) const;

  /// Endpoint required time before CPPR credit and exception shifts:
  /// period + early capture-clock arrival - setup (FF), or period - margin
  /// (primary outputs). The period is the capture FF's clock domain's.
  [[nodiscard]] double ep_base_required(timing::EndpointId ep) const;

  /// Clock period governing an endpoint (its capture domain's; the primary
  /// period for primary outputs).
  [[nodiscard]] double ep_period(timing::EndpointId ep) const;

  [[nodiscard]] const timing::TimingGraph& graph() const { return *graph_; }
  [[nodiscard]] const timing::Constraints& constraints() const { return *constraints_; }
  [[nodiscard]] const timing::ArcDelays& delays() const { return *delays_; }

  /// Mutable access to the shared delay store (the same object the delay
  /// calculator annotates). Callers that write through it must follow up
  /// with update_incremental()/update_full().
  [[nodiscard]] timing::ArcDelays& mutable_delays() { return *delays_; }
  [[nodiscard]] const timing::ClockAnalysis& clock() const {
    util::check(clock_ != nullptr, "GoldenSta::clock: run update_full first");
    return *clock_;
  }
  [[nodiscard]] const timing::ExceptionTable& exceptions() const { return exceptions_; }

  /// Number of pins re-propagated by the last update (full or incremental);
  /// instrumentations for the Fig. 7 runtime study.
  [[nodiscard]] std::size_t last_update_pin_count() const { return last_pins_; }

  /// Arrival entries kept over every pin and transition, setup plus hold,
  /// by the last update_full: the reference's memory and propagation work,
  /// which pruning bounds (also the golden.entries gauge).
  [[nodiscard]] std::size_t num_entries() const { return num_entries_; }

 private:
  [[nodiscard]] std::size_t slot(netlist::PinId pin, netlist::RiseFall rf) const {
    return static_cast<std::size_t>(pin) * 2 + netlist::rf_index(rf);
  }
  /// Recomputes the arrival set of one pin/transition into `out`.
  /// `early` selects min-mode (corner = mu - nsigma*sigma, keep minima).
  void recompute_pin(netlist::PinId pin, netlist::RiseFall rf, bool early,
                     std::vector<ArrivalEntry>& out) const;
  void finalize_entries(netlist::PinId pin, netlist::RiseFall rf,
                        std::vector<ArrivalEntry>& entries, bool early) const;
  /// The derived window: drops the entries the anchor bounds at `pin`.
  void prune_dominated(netlist::PinId pin, netlist::RiseFall rf,
                       std::vector<ArrivalEntry>& entries, double dir) const;
  /// Recompute a pin's sigma ranges from its fanin and its suffix growths
  /// from its fanout (both transitions); true if a value changed.
  bool update_sigma_range(netlist::PinId pin);
  bool update_suffix_growth(netlist::PinId pin);
  /// Re-derives both bounds after `changed` arcs moved; returns the pins
  /// whose suffix growth, and so derived window, moved.
  std::vector<netlist::PinId> update_window_bounds(
      std::span<const timing::ArcId> changed);
  void compute_slack(timing::EndpointId ep);
  void compute_hold_slack(timing::EndpointId ep);

  const timing::TimingGraph* graph_;
  const timing::Constraints* constraints_;
  timing::ArcDelays* delays_;
  GoldenOptions options_;
  timing::ExceptionTable exceptions_;
  std::unique_ptr<timing::ClockAnalysis> clock_;
  double max_credit_ = 0.0;  ///< clock_->max_credit(), cached by update_full
  /// Bounds on the sigma of every arrival at a pin/transition (lo = +inf
  /// where no startpoint reaches it), [pin*2 + rf].
  struct SigmaRange {
    double lo = std::numeric_limits<double>::infinity();
    double hi = 0.0;
  };
  std::vector<SigmaRange> sigma_range_;
  /// Per pin/transition: over the data paths leaving it, the largest sum of
  /// per-arc sigma-gain spreads (the most sigma an arrival can gain over the
  /// arc less the least any arrival gains); times nsigma, the derived
  /// window's suffix bound (DESIGN.md §6), [pin*2 + rf].
  std::vector<double> suffix_growth_;

  std::vector<std::vector<ArrivalEntry>> arr_;        // [pin*2 + rf]
  std::vector<std::vector<ArrivalEntry>> arr_early_;  // min-mode, if enabled
  std::vector<double> slack_;                         // per endpoint
  std::vector<double> hold_slack_;                    // per endpoint
  std::size_t last_pins_ = 0;
  std::size_t num_entries_ = 0;  ///< kept by the last update_full
};

}  // namespace insta::ref
