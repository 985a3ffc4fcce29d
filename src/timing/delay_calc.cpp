#include "timing/delay_calc.hpp"

#include <algorithm>
#include <cmath>

#include "telemetry/telemetry.hpp"
#include "util/check.hpp"
#include "util/thread_pool.hpp"

namespace insta::timing {

using netlist::CellFunc;
using netlist::CellId;
using netlist::kNullCell;
using netlist::kNullNet;
using netlist::kNullPin;
using netlist::LibCell;
using netlist::NetId;
using netlist::PinId;
using util::check;

namespace {

/// Minimum items per pool chunk in compute_all's phases. One item is tens
/// of ns of arithmetic, so smaller chunks would cost more to hand out than
/// to run.
constexpr std::size_t kGrain = 1024;

/// Nominal mu/sigma of one arc for both output transitions.
struct ArcVals {
  std::array<double, 2> mu{0.0, 0.0};
  std::array<double, 2> sigma{0.0, 0.0};
};

}  // namespace

DelayCalculator::DelayCalculator(const netlist::Design& design,
                                 const TimingGraph& graph,
                                 DelayModelParams params)
    : design_(&design), graph_(&graph), params_(params) {
  load_.assign(design.num_nets(), 0.0);
  slew_.assign(design.num_pins(), {params_.primary_input_slew,
                                   params_.primary_input_slew});
}

double DelayCalculator::pin_cap(PinId pin) const {
  const netlist::Pin& p = design_->pin(pin);
  return design_->libcell_of(p.cell).input_cap;
}

double DelayCalculator::sink_length(const netlist::Net& net, PinId sink) const {
  if (params_.use_placement && net.driver != kNullPin) {
    const netlist::Cell& a = design_->cell(design_->pin(net.driver).cell);
    const netlist::Cell& b = design_->cell(design_->pin(sink).cell);
    return std::abs(a.x - b.x) + std::abs(a.y - b.y);
  }
  if (!net.sink_lengths.empty()) {
    for (std::size_t i = 0; i < net.sinks.size(); ++i) {
      if (net.sinks[i] == sink) return net.sink_length(i);
    }
  }
  return net.length_hint;
}

double DelayCalculator::net_total_length(const netlist::Net& net) const {
  if (params_.use_placement && net.driver != kNullPin) {
    // Wire cap estimated from the half-perimeter of the net's bounding box.
    const netlist::Cell& d = design_->cell(design_->pin(net.driver).cell);
    double xmin = d.x, xmax = d.x, ymin = d.y, ymax = d.y;
    for (const PinId s : net.sinks) {
      const netlist::Cell& c = design_->cell(design_->pin(s).cell);
      xmin = std::min(xmin, c.x);
      xmax = std::max(xmax, c.x);
      ymin = std::min(ymin, c.y);
      ymax = std::max(ymax, c.y);
    }
    return (xmax - xmin) + (ymax - ymin);
  }
  if (!net.sink_lengths.empty()) {
    // Conservative: the wire-cap length of a split net is its longest branch.
    double longest = 0.0;
    for (std::size_t i = 0; i < net.sinks.size(); ++i) {
      longest = std::max(longest, net.sink_length(i));
    }
    return longest;
  }
  return net.length_hint;
}

void DelayCalculator::compute_net_load(NetId net_id) {
  const netlist::Net& n = design_->net(net_id);
  double cap = params_.c_per_um * net_total_length(n);
  for (const PinId s : n.sinks) cap += pin_cap(s);
  load_[static_cast<std::size_t>(net_id)] = cap;
}

void DelayCalculator::compute_output_slew(CellId cell_id) {
  const LibCell& lc = design_->libcell_of(cell_id);
  if (!netlist::has_output(lc.func)) return;
  const PinId out = design_->output_pin(cell_id);
  auto& s = slew_[static_cast<std::size_t>(out)];
  if (lc.func == CellFunc::kPortIn) {
    s = {params_.primary_input_slew, params_.primary_input_slew};
    return;
  }
  const NetId net = design_->pin(out).net;
  const double load = (net == kNullNet) ? 0.0 : load_[static_cast<std::size_t>(net)];
  for (const int rf : {0, 1}) {
    s[static_cast<std::size_t>(rf)] = lc.slew_intrinsic[static_cast<std::size_t>(rf)] +
                                      lc.slew_res[static_cast<std::size_t>(rf)] * load;
  }
}

void DelayCalculator::compute_sink_slews(NetId net_id) {
  const netlist::Net& n = design_->net(net_id);
  if (n.driver == kNullPin) return;
  const auto& drv = slew_[static_cast<std::size_t>(n.driver)];
  for (const PinId sink : n.sinks) {
    const double len = sink_length(n, sink);
    const double d = params_.r_per_um * len *
                         (params_.c_per_um * len * 0.5 + pin_cap(sink)) +
                     params_.min_net_delay;
    auto& s = slew_[static_cast<std::size_t>(sink)];
    for (const int rf : {0, 1}) {
      s[static_cast<std::size_t>(rf)] =
          drv[static_cast<std::size_t>(rf)] + params_.slew_net_factor * d;
    }
  }
}

namespace {

/// Cell/launch arc delay from explicit inputs (shared by the exact path and
/// by estimate_eco's frozen-neighbourhood evaluation). Each call is one
/// NLDM-style table evaluation, counted as delay_calc.cell_arc_evals.
ArcVals eval_cell_arc(const ArcRecord& a, const LibCell& lc, double load,
                      const std::array<double, 2>& from_slew) {
  static telemetry::Counter evals =
      telemetry::MetricsRegistry::global().counter(
          "delay_calc.cell_arc_evals");
  evals.inc();
  ArcVals v;
  for (const int rf : {0, 1}) {
    const int in_rf = (a.sense == ArcSense::kPositive) ? rf : 1 - rf;
    const double base = (a.kind == ArcKind::kLaunch)
                            ? lc.clk2q[static_cast<std::size_t>(rf)]
                            : lc.intrinsic[static_cast<std::size_t>(rf)];
    const double mu = base + lc.drive_res[static_cast<std::size_t>(rf)] * load +
                      lc.slew_sens * from_slew[static_cast<std::size_t>(in_rf)];
    v.mu[static_cast<std::size_t>(rf)] = mu;
    v.sigma[static_cast<std::size_t>(rf)] = lc.sigma_ratio * mu;
  }
  return v;
}

}  // namespace

void DelayCalculator::compute_cell_arc(ArcId arc_id, ArcDelays& delays) const {
  const ArcRecord& a = graph_->arc(arc_id);
  const LibCell& lc = design_->libcell_of(a.cell);
  const PinId out = a.to;
  const NetId net = design_->pin(out).net;
  const double load = (net == kNullNet) ? 0.0 : load_[static_cast<std::size_t>(net)];
  const ArcVals v =
      eval_cell_arc(a, lc, load, slew_[static_cast<std::size_t>(a.from)]);
  for (const int rf : {0, 1}) {
    delays.mu[rf][static_cast<std::size_t>(arc_id)] = v.mu[static_cast<std::size_t>(rf)];
    delays.sigma[rf][static_cast<std::size_t>(arc_id)] =
        v.sigma[static_cast<std::size_t>(rf)];
  }
}

void DelayCalculator::compute_net_arc(ArcId arc_id, ArcDelays& delays) const {
  static telemetry::Counter evals =
      telemetry::MetricsRegistry::global().counter(
          "delay_calc.net_arc_evals");
  evals.inc();
  const ArcRecord& a = graph_->arc(arc_id);
  const netlist::Net& n = design_->net(a.net);
  const double len = sink_length(n, a.to);
  const double mu = params_.r_per_um * len *
                        (params_.c_per_um * len * 0.5 + pin_cap(a.to)) +
                    params_.min_net_delay;
  const double sigma = params_.net_sigma_ratio * mu;
  for (const int rf : {0, 1}) {
    delays.mu[rf][static_cast<std::size_t>(arc_id)] = mu;
    delays.sigma[rf][static_cast<std::size_t>(arc_id)] = sigma;
  }
}

void DelayCalculator::compute_all(ArcDelays& delays) {
  INSTA_TRACE_SCOPE("delay_calc.compute_all");
  static telemetry::Counter full_computes =
      telemetry::MetricsRegistry::global().counter(
          "delay_calc.full_computes");
  full_computes.inc();
  delays.resize(graph_->num_arcs());
  // Four phases, each a parallel loop that writes disjoint indices and reads
  // only what earlier phases wrote: net loads (per net), output slews (per
  // cell, one output pin each), sink slews (per net; a sink pin sits on one
  // net, and driver slews are only read), and arc delays (per arc). A launch
  // returns when all its chunks are done, which is the barrier between
  // phases. No phase reads its own output, so the result is bit-identical
  // to a serial pass whatever the chunking.
  util::ThreadPool& pool = util::ThreadPool::global();
  const std::size_t nets = design_->num_nets();
  pool.parallel_for(
      0, nets,
      [this](std::size_t n) { compute_net_load(static_cast<NetId>(n)); },
      kGrain);
  pool.parallel_for(
      0, design_->num_cells(),
      [this](std::size_t c) { compute_output_slew(static_cast<CellId>(c)); },
      kGrain);
  pool.parallel_for(
      0, nets,
      [this](std::size_t n) { compute_sink_slews(static_cast<NetId>(n)); },
      kGrain);
  pool.parallel_for(
      0, graph_->num_arcs(),
      [this, &delays](std::size_t ai) {
        const auto id = static_cast<ArcId>(ai);
        if (graph_->arc(id).kind == ArcKind::kNet) {
          compute_net_arc(id, delays);
        } else {
          compute_cell_arc(id, delays);
        }
      },
      kGrain);
}

std::vector<ArcId> DelayCalculator::update_for_resize(CellId cell_id,
                                                      ArcDelays& delays) {
  INSTA_TRACE_SCOPE("delay_calc.update_for_resize");
  static telemetry::Counter resize_updates =
      telemetry::MetricsRegistry::global().counter(
          "delay_calc.resize_updates");
  resize_updates.inc();
  const LibCell& lc = design_->libcell_of(cell_id);
  check(!netlist::is_sequential(lc.func) && netlist::has_output(lc.func) &&
            netlist::num_data_inputs(lc.func) > 0,
        "update_for_resize: only combinational gates are resizable");
  check(!graph_->is_clock_cell(cell_id),
        "update_for_resize: clock cells are not resizable");

  // Input nets of the resized cell (their load changed through input_cap).
  std::vector<NetId> in_nets;
  for (int i = 0; i < netlist::num_data_inputs(lc.func); ++i) {
    const NetId net = design_->pin(design_->input_pin(cell_id, i)).net;
    if (net != kNullNet) in_nets.push_back(net);
  }
  std::sort(in_nets.begin(), in_nets.end());
  in_nets.erase(std::unique(in_nets.begin(), in_nets.end()), in_nets.end());

  for (const NetId n : in_nets) compute_net_load(n);

  // Slew ripple: drivers of the input nets see a new load; the resized cell
  // itself has new slew parameters. Their output slews change, which changes
  // the input slews of every sink on those nets and on the cell's own output
  // net (one hop -- output slew does not depend on input slew in this model).
  std::vector<CellId> slew_cells;
  slew_cells.push_back(cell_id);
  for (const NetId n : in_nets) {
    const PinId drv = design_->net(n).driver;
    if (drv != kNullPin) slew_cells.push_back(design_->pin(drv).cell);
  }
  std::sort(slew_cells.begin(), slew_cells.end());
  slew_cells.erase(std::unique(slew_cells.begin(), slew_cells.end()),
                   slew_cells.end());
  for (const CellId c : slew_cells) compute_output_slew(c);

  std::vector<NetId> slew_nets = in_nets;
  const PinId out = design_->output_pin(cell_id);
  const NetId out_net = design_->pin(out).net;
  if (out_net != kNullNet) slew_nets.push_back(out_net);
  for (const NetId n : slew_nets) compute_sink_slews(n);

  // Arcs whose delay may have changed.
  std::vector<ArcId> changed;
  auto add_cell_arcs = [&](CellId c) {
    const auto [first, last] = graph_->cell_arcs(c);
    for (ArcId a = first; a < last; ++a) changed.push_back(a);
  };
  add_cell_arcs(cell_id);
  for (const NetId n : in_nets) {
    const PinId drv = design_->net(n).driver;
    if (drv != kNullPin) add_cell_arcs(design_->pin(drv).cell);
    const auto [first, last] = graph_->net_arcs(n);
    for (ArcId a = first; a < last; ++a) changed.push_back(a);
    // Sibling cells: their input slew changed.
    for (const PinId s : design_->net(n).sinks) {
      const netlist::Pin& sp = design_->pin(s);
      if (sp.cell == cell_id || sp.role != netlist::PinRole::kData) continue;
      const LibCell& slc = design_->libcell_of(sp.cell);
      if (netlist::is_sequential(slc.func) || !netlist::has_output(slc.func)) {
        continue;
      }
      add_cell_arcs(sp.cell);
    }
  }
  if (out_net != kNullNet) {
    // Fanout cells: their input slew changed via the new output slew.
    for (const PinId s : design_->net(out_net).sinks) {
      const netlist::Pin& sp = design_->pin(s);
      if (sp.role != netlist::PinRole::kData) continue;
      const LibCell& slc = design_->libcell_of(sp.cell);
      if (netlist::is_sequential(slc.func) || !netlist::has_output(slc.func)) {
        continue;
      }
      add_cell_arcs(sp.cell);
    }
  }
  std::sort(changed.begin(), changed.end());
  changed.erase(std::unique(changed.begin(), changed.end()), changed.end());

  for (const ArcId a : changed) {
    if (graph_->arc(a).kind == ArcKind::kNet) {
      compute_net_arc(a, delays);
    } else {
      compute_cell_arc(a, delays);
    }
  }
  return changed;
}

std::vector<ArcDelta> DelayCalculator::estimate_eco(
    CellId cell_id, netlist::LibCellId new_libcell) const {
  INSTA_TRACE_SCOPE("delay_calc.estimate_eco");
  static telemetry::Counter eco_estimates =
      telemetry::MetricsRegistry::global().counter(
          "delay_calc.eco_estimates");
  eco_estimates.inc();
  const LibCell& old_lc = design_->libcell_of(cell_id);
  const LibCell& new_lc = design_->library().cell(new_libcell);
  check(old_lc.func == new_lc.func, "estimate_eco: function mismatch");
  check(!netlist::is_sequential(old_lc.func),
        "estimate_eco: only combinational gates");

  std::vector<ArcDelta> deltas;
  auto push = [&](ArcId arc, const ArcVals& v) {
    ArcDelta d;
    d.arc = arc;
    d.mu = v.mu;
    d.sigma = v.sigma;
    deltas.push_back(d);
  };

  // New load of each input net under the hypothetical resize.
  auto hyp_load = [&](NetId net_id) {
    const netlist::Net& n = design_->net(net_id);
    double cap = params_.c_per_um * net_total_length(n);
    for (const PinId s : n.sinks) {
      cap += (design_->pin(s).cell == cell_id) ? new_lc.input_cap : pin_cap(s);
    }
    return cap;
  };

  // 1. The cell's own arcs: new cell parameters, unchanged output load,
  //    frozen input slews.
  const PinId out = design_->output_pin(cell_id);
  const NetId out_net = design_->pin(out).net;
  const double out_load =
      (out_net == kNullNet) ? 0.0 : load_[static_cast<std::size_t>(out_net)];
  {
    const auto [first, last] = graph_->cell_arcs(cell_id);
    for (ArcId a = first; a < last; ++a) {
      const ArcRecord& rec = graph_->arc(a);
      push(a, eval_cell_arc(rec, new_lc, out_load,
                            slew_[static_cast<std::size_t>(rec.from)]));
    }
  }

  // 2. Input net arcs into this cell (new pin cap) and the driving cells'
  //    arcs (new net load), with all slews frozen.
  std::vector<NetId> in_nets;
  for (int i = 0; i < netlist::num_data_inputs(old_lc.func); ++i) {
    const NetId net = design_->pin(design_->input_pin(cell_id, i)).net;
    if (net != kNullNet) in_nets.push_back(net);
  }
  std::sort(in_nets.begin(), in_nets.end());
  in_nets.erase(std::unique(in_nets.begin(), in_nets.end()), in_nets.end());

  for (const NetId net_id : in_nets) {
    const netlist::Net& n = design_->net(net_id);
    const double new_load = hyp_load(net_id);
    const auto [nfirst, nlast] = graph_->net_arcs(net_id);
    for (ArcId a = nfirst; a < nlast; ++a) {
      const ArcRecord& rec = graph_->arc(a);
      if (design_->pin(rec.to).cell != cell_id) continue;
      const double len = sink_length(n, rec.to);
      const double mu = params_.r_per_um * len *
                            (params_.c_per_um * len * 0.5 + new_lc.input_cap) +
                        params_.min_net_delay;
      ArcVals v;
      v.mu = {mu, mu};
      v.sigma = {params_.net_sigma_ratio * mu, params_.net_sigma_ratio * mu};
      push(a, v);
    }
    const PinId drv = n.driver;
    if (drv == kNullPin) continue;
    const CellId drv_cell = design_->pin(drv).cell;
    const LibCell& drv_lc = design_->libcell_of(drv_cell);
    if (!netlist::has_output(drv_lc.func) ||
        drv_lc.func == CellFunc::kPortIn) {
      continue;
    }
    const auto [cfirst, clast] = graph_->cell_arcs(drv_cell);
    for (ArcId a = cfirst; a < clast; ++a) {
      const ArcRecord& rec = graph_->arc(a);
      push(a, eval_cell_arc(rec, drv_lc, new_load,
                            slew_[static_cast<std::size_t>(rec.from)]));
    }
  }
  return deltas;
}

}  // namespace insta::timing
