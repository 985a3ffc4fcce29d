#pragma once

#include <span>
#include <vector>

#include "netlist/design.hpp"
#include "timing/graph.hpp"
#include "timing/types.hpp"

namespace insta::timing {

/// Interconnect and environment parameters of the analytic delay model.
/// Units: ps, fF, kΩ, um (1 kΩ * 1 fF = 1 ps).
struct DelayModelParams {
  double r_per_um = 0.01;        ///< wire resistance, kΩ/um
  double c_per_um = 0.15;        ///< wire capacitance, fF/um
  double net_sigma_ratio = 0.05; ///< POCV sigma of net delays / nominal
  double slew_net_factor = 0.1;  ///< slew degradation per ps of net delay
  double primary_input_slew = 20.0;  ///< ps, slew at primary inputs
  double min_net_delay = 0.2;    ///< ps, floor for net arc delays
  bool use_placement = false;    ///< derive lengths from cell (x, y)
};

/// Analytic delay calculator: fills ArcDelays from the library's NLDM-style
/// model plus an Elmore-style interconnect model.
///
/// In the paper's division of labour this class is part of the *reference
/// tool* side (PrimeTime's delay calculation): INSTA never computes delays,
/// it clones them. The calculator supports three operations the experiments
/// need:
///   * compute_all      — full delay calculation (reference update_timing),
///   * update_for_resize — exact incremental recalculation after a gate
///     resize, including the 1-hop slew ripple to neighbouring cells,
///   * estimate_eco     — PrimeTime estimate_eco stand-in: a frozen-
///     neighbourhood local estimate that ignores the slew ripple (the
///     documented source of the small drift studied in Fig. 8).
class DelayCalculator {
 public:
  DelayCalculator(const netlist::Design& design, const TimingGraph& graph,
                  DelayModelParams params = {});

  /// Computes loads, slews and all arc delays from scratch, as four
  /// parallel phases on the global thread pool (bit-identical to a serial
  /// pass; runs inline when called from inside a pool chunk).
  void compute_all(ArcDelays& delays);

  /// Exact incremental recalculation after `cell` was resized (the design
  /// must already hold the new libcell). Updates `delays` in place and
  /// returns the ids of all arcs whose delay changed.
  std::vector<ArcId> update_for_resize(netlist::CellId cell, ArcDelays& delays);

  /// PrimeTime estimate_eco stand-in: local delay-change estimates for
  /// resizing `cell` to `new_libcell`, computed with input slews frozen and
  /// without touching the design, internal state, or `current`. Covers the
  /// cell's own arcs, its input net arcs, and the driving cells' arcs (load
  /// change); deliberately omits the slew-induced changes to sibling and
  /// fanout cells.
  [[nodiscard]] std::vector<ArcDelta> estimate_eco(
      netlist::CellId cell, netlist::LibCellId new_libcell) const;

  /// Total capacitive load driven by `net`, fF (valid after compute_all).
  [[nodiscard]] double load(netlist::NetId net) const {
    return load_[static_cast<std::size_t>(net)];
  }

  /// Transition slew at a pin, ps (valid after compute_all).
  [[nodiscard]] double slew(netlist::PinId pin, netlist::RiseFall rf) const {
    return slew_[static_cast<std::size_t>(pin)][netlist::rf_index(rf)];
  }

  [[nodiscard]] const DelayModelParams& params() const { return params_; }

 private:
  [[nodiscard]] double sink_length(const netlist::Net& net,
                                   netlist::PinId sink) const;
  [[nodiscard]] double net_total_length(const netlist::Net& net) const;
  [[nodiscard]] double pin_cap(netlist::PinId pin) const;
  void compute_net_load(netlist::NetId net);
  void compute_output_slew(netlist::CellId cell);
  void compute_sink_slews(netlist::NetId net);
  void compute_cell_arc(ArcId arc, ArcDelays& delays) const;
  void compute_net_arc(ArcId arc, ArcDelays& delays) const;

  const netlist::Design* design_;
  const TimingGraph* graph_;
  DelayModelParams params_;
  std::vector<double> load_;                    // per net
  std::vector<std::array<double, 2>> slew_;     // per pin, [rise, fall]
};

}  // namespace insta::timing
