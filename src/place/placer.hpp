#pragma once

#include <memory>
#include <vector>

#include "core/engine.hpp"
#include "gen/placement_bench.hpp"
#include "place/legalizer.hpp"
#include "ref/golden_sta.hpp"
#include "timing/delay_calc.hpp"

namespace insta::place {

/// Timing strategy of the global placer.
enum class TimingMode {
  kNone,       ///< wirelength + density only (the "DP" column of Table III)
  kNetWeight,  ///< momentum net weighting from pin slacks (the "DP 4.0"
               ///< baseline [19])
  kInstaPlace, ///< arc-gradient weighted distances from INSTA (Eq. 7-8)
};

/// Options of the analytic global placer substrate. All three timing modes
/// share this identical substrate; only the timing term differs — the
/// controlled comparison Table III makes.
struct PlacerOptions {
  TimingMode mode = TimingMode::kNone;
  int iterations = 240;
  int timing_refresh_interval = 15;  ///< iterations between timer updates
  double gamma_frac = 0.015;  ///< WA wirelength smoothing / core width
  double density_weight = 0.1;      ///< initial lambda_1
  double density_growth = 1.02;     ///< lambda_1 multiplier per iteration
  int density_bins = 24;            ///< density grid resolution per axis
  double lr_frac = 1.0 / 400.0;     ///< Adam step / core width
  double lambda_rc = 0.001;         ///< Eq. 7 RC-per-wirelength constant
  double nw_alpha = 3.0;            ///< net-weighting criticality strength
  double nw_beta = 0.5;             ///< net-weighting momentum
  int insta_top_k = 8;              ///< Top-K of the in-loop INSTA engine
  float insta_tau = 10.0f;          ///< LSE temperature of the in-loop engine
};

/// Per-phase runtime of the timing-refresh iterations (the Fig. 9 data).
struct PlacePhaseTimes {
  double timer_sec = 0.0;     ///< golden full update (OpenTimer's role)
  double transfer_sec = 0.0;  ///< INSTA initialization / cloning
  double forward_sec = 0.0;   ///< INSTA forward
  double backward_sec = 0.0;  ///< INSTA backward
  double weighting_sec = 0.0; ///< net-weight / arc-weight bookkeeping
  double descent_sec = 0.0;   ///< gradient computation + Adam updates (all iters)
  int refreshes = 0;
};

/// Result of one placement run (post-legalization, final golden timing).
struct PlaceResult {
  double hpwl = 0.0;  ///< um, after legalization
  double tns = 0.0;   ///< ps
  double wns = 0.0;   ///< ps
  int violations = 0;
  double total_sec = 0.0;
  // Pre-legalization view plus the legalizer's total displacement, for
  // diagnosing how much quality legalization costs.
  double hpwl_pre = 0.0;
  double tns_pre = 0.0;
  double legalize_displacement = 0.0;
  PlacePhaseTimes phases;
};

/// Analytic timing-driven global placer: weighted-average smoothed
/// wirelength + bin-density spreading, Adam descent, and one of three
/// timing strategies. The golden engine is the in-loop timer (OpenTimer's
/// role in the paper), refreshed every `timing_refresh_interval` iterations;
/// INSTA-Place re-initializes an INSTA engine from it at each refresh and
/// reuses the arc gradients in between, exactly as Section III-I describes.
class GlobalPlacer {
 public:
  /// Binds to a placement bench; the bench's design is mutated in place
  /// (final positions are written back and legalized).
  GlobalPlacer(gen::PlacementBench& bench, PlacerOptions options);

  /// Runs global placement, legalizes, and reports final HPWL and timing.
  PlaceResult run();

 private:
  void sync_positions_to_design();
  void refresh_timing(PlacePhaseTimes& phases);
  void add_wirelength_grad(std::vector<double>& gx,
                           std::vector<double>& gy) const;
  void add_density_grad(std::vector<double>& gx, std::vector<double>& gy,
                        double weight) const;
  /// Combined default objective gradient with the density term normalized
  /// against the wirelength gradient norm and scaled by `density_weight`.
  void add_wirelength_density_grad(std::vector<double>& gx,
                                   std::vector<double>& gy,
                                   double density_weight) const;
  void add_timing_grad(std::vector<double>& gx, std::vector<double>& gy,
                       double scale) const;

  gen::PlacementBench* bench_;
  PlacerOptions options_;
  netlist::Design* design_;
  std::unique_ptr<timing::TimingGraph> graph_;
  std::unique_ptr<timing::DelayCalculator> calc_;
  timing::ArcDelays delays_;
  std::unique_ptr<ref::GoldenSta> sta_;

  std::vector<netlist::CellId> movable_;
  std::vector<std::int32_t> slot_of_cell_;  // -1 if fixed
  std::vector<double> x_, y_;               // per movable slot
  std::vector<double> net_weight_;          // per net (kNetWeight)

  /// Critical-arc list for kInstaPlace: (driver cell, sink cell, gradient).
  struct CritArc {
    netlist::CellId from;
    netlist::CellId to;
    double grad;
  };
  std::vector<CritArc> crit_arcs_;
  double lambda2_ = 0.0;
  double current_density_weight_ = 0.1;
};

}  // namespace insta::place
