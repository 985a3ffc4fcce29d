#include "place/placer.hpp"

#include <algorithm>
#include <cmath>

#include "place/hpwl.hpp"
#include "place/pin_slacks.hpp"
#include "util/check.hpp"
#include "util/timer.hpp"

namespace insta::place {

using netlist::CellId;
using netlist::NetId;
using netlist::PinId;
using timing::ArcId;
using timing::ArcRecord;

GlobalPlacer::GlobalPlacer(gen::PlacementBench& bench, PlacerOptions options)
    : bench_(&bench), options_(options), design_(bench.gd.design.get()) {
  graph_ = std::make_unique<timing::TimingGraph>(
      *design_, bench.gd.constraints.clock_root);
  timing::DelayModelParams dm;
  dm.use_placement = true;
  calc_ = std::make_unique<timing::DelayCalculator>(*design_, *graph_, dm);
  calc_->compute_all(delays_);

  sta_ = std::make_unique<ref::GoldenSta>(*graph_, bench.gd.constraints,
                                          delays_);

  slot_of_cell_.assign(design_->num_cells(), -1);
  for (std::size_t c = 0; c < design_->num_cells(); ++c) {
    const auto id = static_cast<CellId>(c);
    if (design_->cell(id).fixed) continue;
    slot_of_cell_[c] = static_cast<std::int32_t>(movable_.size());
    movable_.push_back(id);
    x_.push_back(design_->cell(id).x);
    y_.push_back(design_->cell(id).y);
  }
  net_weight_.assign(design_->num_nets(), 1.0);
}

void GlobalPlacer::sync_positions_to_design() {
  for (std::size_t i = 0; i < movable_.size(); ++i) {
    netlist::Cell& cell = design_->cell(movable_[i]);
    cell.x = x_[i];
    cell.y = y_[i];
  }
}

void GlobalPlacer::refresh_timing(PlacePhaseTimes& phases) {
  sync_positions_to_design();
  util::Stopwatch t_timer;
  calc_->compute_all(delays_);
  sta_->update_full();
  phases.timer_sec += t_timer.elapsed_sec();

  if (options_.mode == TimingMode::kNetWeight) {
    util::Stopwatch t_w;
    const auto slack = compute_pin_slacks(*sta_);
    const double period = bench_->gd.constraints.clock_period;
    for (std::size_t n = 0; n < design_->num_nets(); ++n) {
      const netlist::Net& net = design_->net(static_cast<NetId>(n));
      double worst = std::numeric_limits<double>::infinity();
      for (const PinId s : net.sinks) {
        worst = std::min(worst, slack[static_cast<std::size_t>(s)]);
      }
      double crit = 0.0;
      if (std::isfinite(worst) && worst < 0.0) {
        crit = std::min(1.0, -worst / std::max(1.0, period));
      }
      const double target = 1.0 + options_.nw_alpha * crit;
      net_weight_[n] =
          options_.nw_beta * net_weight_[n] + (1.0 - options_.nw_beta) * target;
    }
    phases.weighting_sec += t_w.elapsed_sec();
  } else if (options_.mode == TimingMode::kInstaPlace) {
    util::Stopwatch t_init;
    core::EngineOptions eopt;
    eopt.top_k = options_.insta_top_k;
    eopt.tau = options_.insta_tau;
    core::Engine engine(*sta_, eopt);  // the Fig. 9 "data transfer" phase
    phases.transfer_sec += t_init.elapsed_sec();

    util::Stopwatch t_fwd;
    engine.run_forward();
    phases.forward_sec += t_fwd.elapsed_sec();

    util::Stopwatch t_bwd;
    engine.run_backward(core::GradientMetric::kTns);
    phases.backward_sec += t_bwd.elapsed_sec();

    util::Stopwatch t_w;
    crit_arcs_.clear();
    for (std::size_t a = 0; a < graph_->num_arcs(); ++a) {
      const ArcRecord& rec = graph_->arc(static_cast<ArcId>(a));
      if (rec.kind != timing::ArcKind::kNet) continue;
      const float g = engine.arc_gradient(static_cast<ArcId>(a));
      if (g <= 1e-4f) continue;
      crit_arcs_.push_back(CritArc{design_->pin(rec.from).cell,
                                   design_->pin(rec.to).cell,
                                   static_cast<double>(g)});
    }
    // Eq. 8: lambda_2 aligns the norms of the default and timing gradients.
    std::vector<double> gx(movable_.size(), 0.0), gy(movable_.size(), 0.0);
    add_wirelength_density_grad(gx, gy, current_density_weight_);
    double norm_default = 0.0;
    for (std::size_t i = 0; i < movable_.size(); ++i) {
      norm_default += gx[i] * gx[i] + gy[i] * gy[i];
    }
    std::fill(gx.begin(), gx.end(), 0.0);
    std::fill(gy.begin(), gy.end(), 0.0);
    add_timing_grad(gx, gy, 1.0);
    double norm_timing = 0.0;
    for (std::size_t i = 0; i < movable_.size(); ++i) {
      norm_timing += gx[i] * gx[i] + gy[i] * gy[i];
    }
    lambda2_ = (norm_timing > 1e-20)
                   ? std::sqrt(norm_default / norm_timing)
                   : 0.0;
    phases.weighting_sec += t_w.elapsed_sec();
  }
  ++phases.refreshes;
}

void GlobalPlacer::add_timing_grad(std::vector<double>& gx,
                                   std::vector<double>& gy,
                                   double scale) const {
  // Eq. 7: gradient of sum_k lambda_RC * g_k * (|dx| + |dy|).
  for (const CritArc& a : crit_arcs_) {
    const double d = options_.lambda_rc * a.grad * scale;
    const std::int32_t sf = slot_of_cell_[static_cast<std::size_t>(a.from)];
    const std::int32_t st = slot_of_cell_[static_cast<std::size_t>(a.to)];
    const double xf = (sf >= 0) ? x_[static_cast<std::size_t>(sf)]
                                : design_->cell(a.from).x;
    const double xt = (st >= 0) ? x_[static_cast<std::size_t>(st)]
                                : design_->cell(a.to).x;
    const double yf = (sf >= 0) ? y_[static_cast<std::size_t>(sf)]
                                : design_->cell(a.from).y;
    const double yt = (st >= 0) ? y_[static_cast<std::size_t>(st)]
                                : design_->cell(a.to).y;
    const double sx = (xf > xt) ? 1.0 : ((xf < xt) ? -1.0 : 0.0);
    const double sy = (yf > yt) ? 1.0 : ((yf < yt) ? -1.0 : 0.0);
    if (sf >= 0) {
      gx[static_cast<std::size_t>(sf)] += d * sx;
      gy[static_cast<std::size_t>(sf)] += d * sy;
    }
    if (st >= 0) {
      gx[static_cast<std::size_t>(st)] -= d * sx;
      gy[static_cast<std::size_t>(st)] -= d * sy;
    }
  }
}

void GlobalPlacer::add_wirelength_density_grad(std::vector<double>& gx,
                                               std::vector<double>& gy,
                                               double density_weight) const {
  // Normalize the density gradient against the wirelength gradient so the
  // `density_weight` ramp controls their true balance (ePlace-style
  // auto-scaling; raw magnitudes differ by orders of magnitude).
  std::vector<double> dx(gx.size(), 0.0), dy(gy.size(), 0.0);
  add_wirelength_grad(gx, gy);
  add_density_grad(dx, dy, 1.0);
  double nw = 0.0, nd = 0.0;
  for (std::size_t i = 0; i < gx.size(); ++i) {
    nw += gx[i] * gx[i] + gy[i] * gy[i];
    nd += dx[i] * dx[i] + dy[i] * dy[i];
  }
  const double scale =
      (nd > 1e-20) ? density_weight * std::sqrt(nw / nd) : 0.0;
  for (std::size_t i = 0; i < gx.size(); ++i) {
    gx[i] += scale * dx[i];
    gy[i] += scale * dy[i];
  }
}

void GlobalPlacer::add_wirelength_grad(std::vector<double>& gx,
                                       std::vector<double>& gy) const {
  const double core_w = bench_->core_width;
  const double core_h = bench_->core_height;
  const double gamma = options_.gamma_frac * std::max(core_w, core_h);

  // Weighted-average smoothed wirelength.
  std::vector<std::pair<CellId, double>> vals;  // reused per net/axis
  for (std::size_t n = 0; n < design_->num_nets(); ++n) {
    const netlist::Net& net = design_->net(static_cast<NetId>(n));
    if (net.driver == netlist::kNullPin || net.sinks.empty()) continue;
    const double w = net_weight_[n];

    for (const int axis : {0, 1}) {
      vals.clear();
      auto coord = [&](PinId pin) {
        const CellId c = design_->pin(pin).cell;
        const std::int32_t s = slot_of_cell_[static_cast<std::size_t>(c)];
        if (s < 0) {
          return axis == 0 ? design_->cell(c).x : design_->cell(c).y;
        }
        return axis == 0 ? x_[static_cast<std::size_t>(s)]
                         : y_[static_cast<std::size_t>(s)];
      };
      vals.emplace_back(design_->pin(net.driver).cell, coord(net.driver));
      for (const PinId s : net.sinks) {
        vals.emplace_back(design_->pin(s).cell, coord(s));
      }
      double vmax = vals[0].second, vmin = vals[0].second;
      for (const auto& [c, v] : vals) {
        vmax = std::max(vmax, v);
        vmin = std::min(vmin, v);
      }
      double s1 = 0.0, s2 = 0.0, t1 = 0.0, t2 = 0.0;
      for (const auto& [c, v] : vals) {
        const double e = std::exp((v - vmax) / gamma);
        const double f = std::exp((vmin - v) / gamma);
        s1 += e;
        s2 += v * e;
        t1 += f;
        t2 += v * f;
      }
      const double wa_max = s2 / s1;
      const double wa_min = t2 / t1;
      for (const auto& [c, v] : vals) {
        const std::int32_t slot = slot_of_cell_[static_cast<std::size_t>(c)];
        if (slot < 0) continue;
        const double e = std::exp((v - vmax) / gamma);
        const double f = std::exp((vmin - v) / gamma);
        const double dmax = e * (1.0 + (v - wa_max) / gamma) / s1;
        const double dmin = f * (1.0 - (v - wa_min) / gamma) / t1;
        const double grad = w * (dmax - dmin);
        auto& out = (axis == 0) ? gx : gy;
        out[static_cast<std::size_t>(slot)] += grad;
      }
    }
  }

}

void GlobalPlacer::add_density_grad(std::vector<double>& gx,
                                    std::vector<double>& gy,
                                    double weight) const {
  const double core_w = bench_->core_width;
  const double core_h = bench_->core_height;
  const int bins = options_.density_bins;
  const double bw = core_w / bins;
  const double bh = core_h / bins;
  std::vector<double> area(static_cast<std::size_t>(bins * bins), 0.0);
  double total_area = 0.0;
  for (std::size_t c = 0; c < design_->num_cells(); ++c) {
    const auto id = static_cast<CellId>(c);
    const double a = design_->libcell_of(id).area;
    if (a <= 0.0) continue;
    const netlist::Cell& cell = design_->cell(id);
    const std::int32_t slot = slot_of_cell_[c];
    const double px = (slot >= 0) ? x_[static_cast<std::size_t>(slot)] : cell.x;
    const double py = (slot >= 0) ? y_[static_cast<std::size_t>(slot)] : cell.y;
    const int bx = std::clamp(static_cast<int>(px / bw), 0, bins - 1);
    const int by = std::clamp(static_cast<int>(py / bh), 0, bins - 1);
    area[static_cast<std::size_t>(by * bins + bx)] += a;
    total_area += a;
  }

  // Long-range spreading potential: the raw density-minus-average field is
  // flat inside a uniform clump (zero local gradient), so cells deep in a
  // blob would never move. Repeated box blurs turn the field into a smooth
  // potential whose gradient reaches into the interior — a cheap stand-in
  // for ePlace's Poisson potential.
  const double bin_area = bw * bh;
  const double avg = total_area / (core_w * core_h);
  std::vector<double> pot(area.size());
  for (std::size_t b = 0; b < area.size(); ++b) {
    pot[b] = area[b] / bin_area - avg;
  }
  std::vector<double> tmp(pot.size());
  auto at = [&](const std::vector<double>& f, int bx, int by) {
    bx = std::clamp(bx, 0, bins - 1);
    by = std::clamp(by, 0, bins - 1);
    return f[static_cast<std::size_t>(by * bins + bx)];
  };
  for (int pass = 0; pass < 6; ++pass) {
    for (int by = 0; by < bins; ++by) {
      for (int bx = 0; bx < bins; ++bx) {
        tmp[static_cast<std::size_t>(by * bins + bx)] =
            (at(pot, bx, by) * 2.0 + at(pot, bx - 1, by) + at(pot, bx + 1, by) +
             at(pot, bx, by - 1) + at(pot, bx, by + 1)) /
            6.0;
      }
    }
    std::swap(pot, tmp);
  }
  for (std::size_t i = 0; i < movable_.size(); ++i) {
    const CellId id = movable_[i];
    const double a = design_->libcell_of(id).area;
    if (a <= 0.0) continue;
    const int bx = std::clamp(static_cast<int>(x_[i] / bw), 0, bins - 1);
    const int by = std::clamp(static_cast<int>(y_[i] / bh), 0, bins - 1);
    gx[i] += weight * a * (at(pot, bx + 1, by) - at(pot, bx - 1, by)) /
             (2.0 * bw);
    gy[i] += weight * a * (at(pot, bx, by + 1) - at(pot, bx, by - 1)) /
             (2.0 * bh);
  }
}

PlaceResult GlobalPlacer::run() {
  util::Stopwatch total;
  PlaceResult res;

  const double core_w = bench_->core_width;
  const double core_h = bench_->core_height;
  const double lr = options_.lr_frac * std::max(core_w, core_h);
  current_density_weight_ = options_.density_weight;

  std::vector<double> mx(movable_.size(), 0.0), vx(movable_.size(), 0.0);
  std::vector<double> my(movable_.size(), 0.0), vy(movable_.size(), 0.0);
  std::vector<double> gx(movable_.size(), 0.0), gy(movable_.size(), 0.0);
  constexpr double kB1 = 0.9, kB2 = 0.999, kEps = 1e-9;

  for (int iter = 0; iter < options_.iterations; ++iter) {
    if (options_.mode != TimingMode::kNone &&
        iter % options_.timing_refresh_interval == 0) {
      refresh_timing(res.phases);
    }
    util::Stopwatch t_descent;
    std::fill(gx.begin(), gx.end(), 0.0);
    std::fill(gy.begin(), gy.end(), 0.0);
    add_wirelength_density_grad(gx, gy, current_density_weight_);
    if (options_.mode == TimingMode::kInstaPlace) {
      add_timing_grad(gx, gy, lambda2_);
    }
    const double t = iter + 1;
    const double bc1 = 1.0 - std::pow(kB1, t);
    const double bc2 = 1.0 - std::pow(kB2, t);
    for (std::size_t i = 0; i < movable_.size(); ++i) {
      mx[i] = kB1 * mx[i] + (1.0 - kB1) * gx[i];
      vx[i] = kB2 * vx[i] + (1.0 - kB2) * gx[i] * gx[i];
      my[i] = kB1 * my[i] + (1.0 - kB1) * gy[i];
      vy[i] = kB2 * vy[i] + (1.0 - kB2) * gy[i] * gy[i];
      x_[i] -= lr * (mx[i] / bc1) / (std::sqrt(vx[i] / bc2) + kEps);
      y_[i] -= lr * (my[i] / bc1) / (std::sqrt(vy[i] / bc2) + kEps);
      x_[i] = std::clamp(x_[i], 1.0, core_w - 1.0);
      y_[i] = std::clamp(y_[i], 1.0, core_h - 1.0);
    }
    current_density_weight_ *= options_.density_growth;
    res.phases.descent_sec += t_descent.elapsed_sec();
  }

  sync_positions_to_design();
  calc_->compute_all(delays_);
  sta_->update_full();
  res.hpwl_pre = total_hpwl(*design_);
  res.tns_pre = sta_->tns();

  const CoreGeometry core{core_w, core_h, bench_->row_height, bench_->num_rows};
  res.legalize_displacement = legalize_rows(*design_, core);
  calc_->compute_all(delays_);
  sta_->update_full();

  res.hpwl = total_hpwl(*design_);
  res.tns = sta_->tns();
  res.wns = sta_->wns();
  res.violations = sta_->num_violations();
  res.total_sec = total.elapsed_sec();
  return res;
}

}  // namespace insta::place
