#include "ref/golden_sta.hpp"

#include <algorithm>
#include <atomic>
#include <cmath>

#include "telemetry/telemetry.hpp"
#include "util/check.hpp"
#include "util/thread_pool.hpp"

namespace insta::ref {

using netlist::kNullPin;
using netlist::PinId;
using netlist::RiseFall;
using timing::ArcDelta;
using timing::ArcId;
using timing::ArcKind;
using timing::ArcRecord;
using timing::ArcSense;
using timing::EndpointId;
using timing::StartpointId;
using util::check;

GoldenSta::GoldenSta(const timing::TimingGraph& graph,
                     const timing::Constraints& constraints,
                     timing::ArcDelays& delays, GoldenOptions options)
    : graph_(&graph),
      constraints_(&constraints),
      delays_(&delays),
      options_(options),
      exceptions_(graph, constraints.exceptions) {
  check(delays.size() == graph.num_arcs(),
        "GoldenSta: delays not computed for this graph");
  arr_.assign(graph.design().num_pins() * 2, {});
  arr_early_.assign(graph.design().num_pins() * 2, {});
  slack_.assign(graph.endpoints().size(), kNoArrivalSlack);
  hold_slack_.assign(graph.endpoints().size(), kNoArrivalSlack);
}

GoldenSta::SpInit GoldenSta::sp_init(StartpointId sp_id) const {
  const timing::Startpoint& sp =
      graph_->startpoints()[static_cast<std::size_t>(sp_id)];
  SpInit init;
  if (!sp.clocked) {
    init.mu = {constraints_->input_arrival_mu, constraints_->input_arrival_mu};
    init.sigma = {constraints_->input_arrival_sigma,
                  constraints_->input_arrival_sigma};
    return init;
  }
  check(clock_ != nullptr, "sp_init: clock analysis not ready");
  const auto [first, last] = graph_->cell_arcs(sp.cell);
  check(last - first == 1 && graph_->arc(first).kind == ArcKind::kLaunch,
        "sp_init: FF must have exactly one launch arc");
  const double ck_mu = clock_->ck_mu(sp.cell);
  const double ck_sig2 = clock_->ck_sig2(sp.cell);
  for (const int rf : {0, 1}) {
    const double lmu = delays_->mu[rf][static_cast<std::size_t>(first)];
    const double lsig = delays_->sigma[rf][static_cast<std::size_t>(first)];
    init.mu[static_cast<std::size_t>(rf)] = ck_mu + lmu;
    init.sigma[static_cast<std::size_t>(rf)] = std::sqrt(ck_sig2 + lsig * lsig);
  }
  return init;
}

double GoldenSta::ep_period(EndpointId ep_id) const {
  const timing::Endpoint& ep =
      graph_->endpoints()[static_cast<std::size_t>(ep_id)];
  if (!ep.clocked) return constraints_->clock_period;
  check(clock_ != nullptr, "ep_period: clock analysis not ready");
  return constraints_->period_of_domain(clock_->domain_of_ff(ep.cell));
}

double GoldenSta::ep_base_required(EndpointId ep_id) const {
  const timing::Endpoint& ep =
      graph_->endpoints()[static_cast<std::size_t>(ep_id)];
  if (!ep.clocked) {
    return constraints_->clock_period - constraints_->output_margin;
  }
  check(clock_ != nullptr, "ep_base_required: clock analysis not ready");
  const netlist::LibCell& lc = graph_->design().libcell_of(ep.cell);
  return ep_period(ep_id) + clock_->early_ck(ep.cell) - lc.setup;
}

void GoldenSta::finalize_entries(PinId pin, RiseFall rf,
                                 std::vector<ArrivalEntry>& entries,
                                 bool early) const {
  if (entries.empty()) return;
  // Unique per startpoint, keeping the worst corner (maximum for late mode,
  // minimum for early mode); ties broken totally so that full and
  // incremental updates produce bit-identical sets.
  const double dir = early ? -1.0 : 1.0;
  auto total_less = [dir](const ArrivalEntry& a, const ArrivalEntry& b) {
    if (a.sp != b.sp) return a.sp < b.sp;
    if (a.corner != b.corner) return dir * a.corner > dir * b.corner;
    if (a.mu != b.mu) return dir * a.mu > dir * b.mu;
    return dir * a.sigma > dir * b.sigma;
  };
  std::sort(entries.begin(), entries.end(), total_less);
  entries.erase(std::unique(entries.begin(), entries.end(),
                            [](const ArrivalEntry& a, const ArrivalEntry& b) {
                              return a.sp == b.sp;
                            }),
                entries.end());
  auto corner_less = [dir](const ArrivalEntry& a, const ArrivalEntry& b) {
    if (a.corner != b.corner) return dir * a.corner > dir * b.corner;
    return a.sp < b.sp;
  };
  std::sort(entries.begin(), entries.end(), corner_less);
  if (!options_.prune_window) {
    prune_dominated(pin, rf, entries, dir);
  } else if (std::isfinite(*options_.prune_window)) {
    const double floor = dir * entries.front().corner - *options_.prune_window;
    while (!entries.empty() && dir * entries.back().corner < floor) {
      entries.pop_back();
    }
  }
#ifndef NDEBUG
  // Algorithm 1 invariant: after finalize the set is unique per startpoint and
  // sorted by corner (worst first). The Top-K engine's seeding relies on this.
  for (std::size_t i = 1; i < entries.size(); ++i) {
    INSTA_DCHECK(entries[i - 1].sp != entries[i].sp,
                 "finalize_entries: duplicate startpoint survived dedup");
    INSTA_DCHECK(dir * entries[i - 1].corner >= dir * entries[i].corner,
                 "finalize_entries: corners not sorted worst-first");
  }
#endif
}

void GoldenSta::prune_dominated(PinId pin, RiseFall rf,
                                std::vector<ArrivalEntry>& entries,
                                double dir) const {
  // The anchor A is the worst entry whose startpoint no exception names, so
  // its required time is never shifted or removed. Along a suffix path,
  // every arc moves A's startpoint's kept corner by at least its mean plus
  // the least sigma gain any arrival makes there, whatever the merges keep,
  // and every arrival of B's startpoint that B's removal changes, in
  // either engine, by at most its mean plus the largest gain; the gaps sum
  // to at most suffix_growth. CPPR credit closes at most max_credit. So B
  // never decides a slack once the corner gap exceeds both (DESIGN.md §6;
  // hold mirrors it).
  const auto anchor =
      std::find_if(entries.begin(), entries.end(), [&](const ArrivalEntry& e) {
        return !exceptions_.names_startpoint(e.sp);
      });
  if (anchor == entries.end()) return;
  const double floor =
      dir * anchor->corner - constraints_->nsigma *
                                 suffix_growth_[slot(pin, rf)] -
      max_credit_;
  while (entries.end() - anchor > 1 && dir * entries.back().corner < floor) {
    entries.pop_back();
  }
}

bool GoldenSta::update_sigma_range(PinId pin) {
  bool changed = false;
  const auto fanin = graph_->fanin(pin);
  const StartpointId sp =
      fanin.empty() ? graph_->startpoint_of_pin(pin) : timing::kNullStartpoint;
  for (const RiseFall rf : netlist::kBothTransitions) {
    const auto rfi = static_cast<std::size_t>(netlist::rf_index(rf));
    SigmaRange r;
    if (sp != timing::kNullStartpoint) {
      r.lo = r.hi = sp_init(sp).sigma[rfi];
    }
    for (const ArcId aid : fanin) {
      const ArcRecord& a = graph_->arc(aid);
      const RiseFall prf =
          (a.sense == ArcSense::kPositive) ? rf : opposite(rf);
      const SigmaRange& u = sigma_range_[slot(a.from, prf)];
      if (!std::isfinite(u.lo)) continue;
      const double s = delays_->sigma[rfi][static_cast<std::size_t>(aid)];
      r.lo = std::min(r.lo, std::sqrt(u.lo * u.lo + s * s));
      r.hi = std::max(r.hi, std::sqrt(u.hi * u.hi + s * s));
    }
    SigmaRange& cur = sigma_range_[slot(pin, rf)];
    if (cur.lo != r.lo || cur.hi != r.hi) {
      cur = r;
      changed = true;
    }
  }
  return changed;
}

bool GoldenSta::update_suffix_growth(PinId pin) {
  bool changed = false;
  for (const RiseFall rf : netlist::kBothTransitions) {
    const SigmaRange& r = sigma_range_[slot(pin, rf)];
    double worst = 0.0;
    if (std::isfinite(r.lo)) {
      for (const ArcId aid : graph_->fanout(pin)) {
        const ArcRecord& a = graph_->arc(aid);
        const RiseFall to_rf =
            (a.sense == ArcSense::kPositive) ? rf : opposite(rf);
        const double s =
            delays_->sigma[netlist::rf_index(to_rf)][static_cast<std::size_t>(aid)];
        // The most sigma an arrival here can gain over the arc, less the
        // least any arrival here gains.
        const double spread = (std::sqrt(r.lo * r.lo + s * s) - r.lo) -
                              (std::sqrt(r.hi * r.hi + s * s) - r.hi);
        worst = std::max(worst, spread + suffix_growth_[slot(a.to, to_rf)]);
      }
    }
    double& cur = suffix_growth_[slot(pin, rf)];
    if (cur != worst) {
      cur = worst;
      changed = true;
    }
  }
  return changed;
}

void GoldenSta::recompute_pin(PinId pin, RiseFall rf, bool early,
                              std::vector<ArrivalEntry>& out) const {
  out.clear();
  const double nsig = (early ? -1.0 : 1.0) * constraints_->nsigma;
  const auto& source = early ? arr_early_ : arr_;
  const auto fanin = graph_->fanin(pin);
  if (fanin.empty()) {
    const StartpointId sp = graph_->startpoint_of_pin(pin);
    if (sp == timing::kNullStartpoint) return;
    const SpInit init = sp_init(sp);
    const int rfi = netlist::rf_index(rf);
    ArrivalEntry e;
    e.sp = sp;
    e.mu = init.mu[static_cast<std::size_t>(rfi)];
    e.sigma = init.sigma[static_cast<std::size_t>(rfi)];
    e.corner = e.mu + nsig * e.sigma;
    out.push_back(e);
    return;
  }
  const int rfi = netlist::rf_index(rf);
  for (const ArcId aid : fanin) {
    const ArcRecord& a = graph_->arc(aid);
    const RiseFall prf = (a.sense == ArcSense::kPositive) ? rf : opposite(rf);
    const double amu = delays_->mu[rfi][static_cast<std::size_t>(aid)];
    const double asig = delays_->sigma[rfi][static_cast<std::size_t>(aid)];
    INSTA_DCHECK(std::isfinite(amu) && asig >= 0.0,
                 "recompute_pin: non-finite mu or negative sigma on arc");
    for (const ArrivalEntry& p : source[slot(a.from, prf)]) {
      ArrivalEntry e;
      e.sp = p.sp;
      e.mu = p.mu + amu;
      e.sigma = std::sqrt(p.sigma * p.sigma + asig * asig);
      e.corner = e.mu + nsig * e.sigma;
      out.push_back(e);
    }
  }
  finalize_entries(pin, rf, out, early);
}

void GoldenSta::update_full() {
  INSTA_TRACE_SCOPE("golden.update_full");
  static telemetry::Counter full_updates =
      telemetry::MetricsRegistry::global().counter("golden.full_updates");
  static telemetry::Counter pins_propagated =
      telemetry::MetricsRegistry::global().counter("golden.pins_propagated");
  static telemetry::Gauge entries =
      telemetry::MetricsRegistry::global().gauge("golden.entries");
  full_updates.inc();
  {
    INSTA_TRACE_SCOPE("golden.clock");
    clock_ = std::make_unique<timing::ClockAnalysis>(*graph_, *delays_,
                                                     constraints_->nsigma);
    max_credit_ = clock_->max_credit();
  }
  if (!options_.prune_window) {
    INSTA_TRACE_SCOPE("golden.window_bounds");
    sigma_range_.assign(arr_.size(), SigmaRange{});
    suffix_growth_.assign(arr_.size(), 0.0);
    const auto order = graph_->level_order();
    for (const PinId p : order) update_sigma_range(p);
    for (auto it = order.rbegin(); it != order.rend(); ++it) {
      update_suffix_growth(*it);
    }
  }
  last_pins_ = 0;
  std::atomic<std::size_t> kept{0};
  auto& pool = util::ThreadPool::global();
  for (std::size_t l = 0; l < graph_->num_levels(); ++l) {
    const auto pins = graph_->level(l);
    last_pins_ += pins.size();
    auto process = [&](std::size_t lo, std::size_t hi) {
      std::size_t n = 0;
      for (std::size_t i = lo; i < hi; ++i) {
        const PinId p = pins[i];
        for (const RiseFall rf : netlist::kBothTransitions) {
          auto& late = arr_[slot(p, rf)];
          recompute_pin(p, rf, /*early=*/false, late);
          n += late.size();
          if (options_.enable_hold) {
            auto& early = arr_early_[slot(p, rf)];
            recompute_pin(p, rf, /*early=*/true, early);
            n += early.size();
          }
        }
      }
      kept.fetch_add(n, std::memory_order_relaxed);
    };
    pool.parallel_for_chunks(0, pins.size(), process, 64);
  }
  pins_propagated.add(last_pins_);
  num_entries_ = kept.load(std::memory_order_relaxed);
  entries.set(static_cast<double>(num_entries_));
  INSTA_TRACE_SCOPE("golden.slacks");
  for (std::size_t e = 0; e < graph_->endpoints().size(); ++e) {
    compute_slack(static_cast<EndpointId>(e));
    if (options_.enable_hold) compute_hold_slack(static_cast<EndpointId>(e));
  }
}

void GoldenSta::update_incremental(std::span<const ArcId> changed) {
  INSTA_TRACE_SCOPE("golden.update_incremental",
                    static_cast<std::int64_t>(changed.size()));
  static telemetry::Counter incr_updates =
      telemetry::MetricsRegistry::global().counter(
          "golden.incremental_updates");
  static telemetry::Counter invalidated =
      telemetry::MetricsRegistry::global().counter("golden.invalidated_pins");
  static telemetry::Counter eps_recomputed =
      telemetry::MetricsRegistry::global().counter(
          "golden.endpoints_recomputed");
  static telemetry::Counter full_fallbacks =
      telemetry::MetricsRegistry::global().counter(
          "golden.incremental.full_fallbacks");
  incr_updates.inc();
  check(clock_ != nullptr, "update_incremental: call update_full first");
  const std::size_t num_levels = graph_->num_levels();
  std::vector<std::vector<PinId>> buckets(num_levels);
  std::vector<char> queued(graph_->design().num_pins(), 0);

  auto push = [&](PinId p) {
    const int lvl = graph_->level_of(p);
    check(lvl >= 0, "update_incremental: clock pin in data cone");
    if (queued[static_cast<std::size_t>(p)]) return;
    queued[static_cast<std::size_t>(p)] = 1;
    buckets[static_cast<std::size_t>(lvl)].push_back(p);
  };

  for (const ArcId aid : changed) {
    const ArcRecord& a = graph_->arc(aid);
    if (graph_->is_clock_network(a.from) || graph_->is_clock_network(a.to)) {
      // Clock arrivals (and so required times and CPPR) changed: full update.
      full_fallbacks.inc();
      update_full();
      return;
    }
    push(a.to);
  }
  if (!options_.prune_window) {
    // The derived window moves with the arc sigmas: re-propagate every pin
    // whose window moved, so that the sets match a full update's.
    for (const PinId p : update_window_bounds(changed)) push(p);
  }
  last_pins_ = 0;
  std::vector<ArrivalEntry> scratch;
  std::vector<EndpointId> touched_eps;
  for (std::size_t l = 0; l < num_levels; ++l) {
    for (const PinId p : buckets[l]) {
      ++last_pins_;
      bool changed_pin = false;
      auto same = [](const ArrivalEntry& a, const ArrivalEntry& b) {
        return a.sp == b.sp && a.mu == b.mu && a.sigma == b.sigma;
      };
      for (const RiseFall rf : netlist::kBothTransitions) {
        recompute_pin(p, rf, /*early=*/false, scratch);
        auto& cur = arr_[slot(p, rf)];
        if (scratch.size() != cur.size() ||
            !std::equal(scratch.begin(), scratch.end(), cur.begin(), same)) {
          cur = scratch;
          changed_pin = true;
        }
        if (options_.enable_hold) {
          recompute_pin(p, rf, /*early=*/true, scratch);
          auto& cur_early = arr_early_[slot(p, rf)];
          if (scratch.size() != cur_early.size() ||
              !std::equal(scratch.begin(), scratch.end(), cur_early.begin(),
                          same)) {
            cur_early = scratch;
            changed_pin = true;
          }
        }
      }
      if (!changed_pin) continue;
      const EndpointId ep = graph_->endpoint_of_pin(p);
      if (ep != timing::kNullEndpoint) touched_eps.push_back(ep);
      for (const ArcId aid : graph_->fanout(p)) push(graph_->arc(aid).to);
    }
  }
  invalidated.add(last_pins_);
  eps_recomputed.add(touched_eps.size());
  for (const EndpointId ep : touched_eps) {
    compute_slack(ep);
    if (options_.enable_hold) compute_hold_slack(ep);
  }
}

std::vector<PinId> GoldenSta::update_window_bounds(
    std::span<const ArcId> changed) {
  // A changed arc sigma moves the sigma ranges of its fanout cone, and the
  // suffix growth of the fanin cones of its source and of every pin whose
  // range moved. Early termination both ways, as for arrivals.
  const std::size_t num_levels = graph_->num_levels();
  std::vector<std::vector<PinId>> fwd(num_levels);
  std::vector<std::vector<PinId>> back(num_levels);
  std::vector<char> fwd_queued(graph_->design().num_pins(), 0);
  std::vector<char> back_queued(graph_->design().num_pins(), 0);
  auto enqueue = [&](std::vector<std::vector<PinId>>& q,
                     std::vector<char>& seen, PinId p) {
    if (seen[static_cast<std::size_t>(p)]) return;
    seen[static_cast<std::size_t>(p)] = 1;
    q[static_cast<std::size_t>(graph_->level_of(p))].push_back(p);
  };
  for (const ArcId aid : changed) {
    enqueue(fwd, fwd_queued, graph_->arc(aid).to);
    enqueue(back, back_queued, graph_->arc(aid).from);
  }
  for (std::size_t l = 0; l < num_levels; ++l) {
    for (const PinId p : fwd[l]) {
      if (!update_sigma_range(p)) continue;
      enqueue(back, back_queued, p);
      for (const ArcId aid : graph_->fanout(p)) {
        enqueue(fwd, fwd_queued, graph_->arc(aid).to);
      }
    }
  }
  std::vector<PinId> moved;
  for (std::size_t l = num_levels; l-- > 0;) {
    for (const PinId p : back[l]) {
      if (!update_suffix_growth(p)) continue;
      moved.push_back(p);
      for (const ArcId aid : graph_->fanin(p)) {
        enqueue(back, back_queued, graph_->arc(aid).from);
      }
    }
  }
  return moved;
}

void GoldenSta::annotate_and_update(std::span<const ArcDelta> deltas) {
  std::vector<ArcId> ids;
  ids.reserve(deltas.size());
  for (const ArcDelta& d : deltas) {
    for (const int rf : {0, 1}) {
      delays_->mu[rf][static_cast<std::size_t>(d.arc)] =
          d.mu[static_cast<std::size_t>(rf)];
      delays_->sigma[rf][static_cast<std::size_t>(d.arc)] =
          d.sigma[static_cast<std::size_t>(rf)];
    }
    ids.push_back(d.arc);
  }
  update_incremental(ids);
}

void GoldenSta::compute_slack(EndpointId ep_id) {
  const timing::Endpoint& ep =
      graph_->endpoints()[static_cast<std::size_t>(ep_id)];
  const double base = ep_base_required(ep_id);
  const netlist::CellId cap_cell = ep.clocked ? ep.cell : netlist::kNullCell;
  double slack = kNoArrivalSlack;
  for (const RiseFall rf : netlist::kBothTransitions) {
    for (const ArrivalEntry& e : arr_[slot(ep.pin, rf)]) {
      if (exceptions_.size() != 0) {
        if (exceptions_.is_false_path(e.sp, ep_id)) continue;
      }
      const timing::Startpoint& sp =
          graph_->startpoints()[static_cast<std::size_t>(e.sp)];
      const netlist::CellId launch_cell =
          sp.clocked ? sp.cell : netlist::kNullCell;
      double req = base + clock_->credit(launch_cell, cap_cell);
      if (exceptions_.size() != 0) {
        req += exceptions_.required_shift(e.sp, ep_id, ep_period(ep_id));
      }
      slack = std::min(slack, req - e.corner);
    }
  }
  slack_[static_cast<std::size_t>(ep_id)] = slack;
}

void GoldenSta::compute_hold_slack(EndpointId ep_id) {
  const timing::Endpoint& ep =
      graph_->endpoints()[static_cast<std::size_t>(ep_id)];
  double slack = kNoArrivalSlack;
  if (ep.clocked) {
    // Hold check: the earliest same-cycle data arrival must not beat the
    // capture clock's late corner plus the hold requirement; common clock
    // path pessimism is removed just as for setup.
    const netlist::LibCell& lc = graph_->design().libcell_of(ep.cell);
    const double base = clock_->late_ck(ep.cell) + lc.hold;
    for (const RiseFall rf : netlist::kBothTransitions) {
      for (const ArrivalEntry& e : arr_early_[slot(ep.pin, rf)]) {
        if (exceptions_.size() != 0 && exceptions_.is_false_path(e.sp, ep_id)) {
          continue;
        }
        const timing::Startpoint& sp =
            graph_->startpoints()[static_cast<std::size_t>(e.sp)];
        const netlist::CellId launch =
            sp.clocked ? sp.cell : netlist::kNullCell;
        const double req = base - clock_->credit(launch, ep.cell);
        slack = std::min(slack, e.corner - req);
      }
    }
  }
  hold_slack_[static_cast<std::size_t>(ep_id)] = slack;
}

double GoldenSta::whs() const {
  double w = 0.0;
  bool any = false;
  for (const double s : hold_slack_) {
    if (!std::isfinite(s)) continue;
    if (!any || s < w) {
      w = s;
      any = true;
    }
  }
  return any ? w : 0.0;
}

double GoldenSta::ths() const {
  double t = 0.0;
  for (const double s : hold_slack_) {
    if (std::isfinite(s) && s < 0.0) t += s;
  }
  return t;
}

int GoldenSta::num_hold_violations() const {
  int n = 0;
  for (const double s : hold_slack_) {
    if (std::isfinite(s) && s < 0.0) ++n;
  }
  return n;
}

double GoldenSta::wns() const {
  double w = 0.0;
  bool any = false;
  for (const double s : slack_) {
    if (!std::isfinite(s)) continue;
    if (!any || s < w) {
      w = s;
      any = true;
    }
  }
  return any ? w : 0.0;
}

double GoldenSta::tns() const {
  double t = 0.0;
  for (const double s : slack_) {
    if (std::isfinite(s) && s < 0.0) t += s;
  }
  return t;
}

int GoldenSta::num_violations() const {
  int n = 0;
  for (const double s : slack_) {
    if (std::isfinite(s) && s < 0.0) ++n;
  }
  return n;
}

double GoldenSta::worst_arrival(PinId pin) const {
  double worst = -std::numeric_limits<double>::infinity();
  for (const RiseFall rf : netlist::kBothTransitions) {
    const auto& v = arr_[slot(pin, rf)];
    if (!v.empty()) worst = std::max(worst, v.front().corner);
  }
  return worst;
}

}  // namespace insta::ref
