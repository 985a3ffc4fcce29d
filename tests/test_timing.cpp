#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <unordered_map>

#include "gen/logic_block.hpp"
#include "gen/presets.hpp"
#include "ref/golden_sta.hpp"
#include "timing/clock.hpp"
#include "timing/constraints.hpp"
#include "timing/delay_calc.hpp"
#include "timing/graph.hpp"
#include "util/check.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"

namespace insta {
namespace {

using netlist::CellFunc;
using netlist::CellId;
using netlist::Library;
using netlist::NetId;
using netlist::PinId;
using timing::ArcDelays;
using timing::ArcId;
using timing::DelayCalculator;
using timing::TimingGraph;

/// A hand-built two-flop pipeline with a shared clock buffer:
///   clk -> ckbuf -> {ff1/CK, ff2/CK};  ff1/Q -> inv -> ff2/D.
/// Small enough that every timing quantity can be composed by hand from the
/// annotated arc delays, independently validating clock analysis, CPPR
/// credit, startpoint initialization, and the endpoint slack formula.
struct HandBuilt {
  Library lib = netlist::make_default_library();
  netlist::Design d{lib};
  CellId clk, din, ckbuf, ff1, ff2, inv;
  std::unique_ptr<TimingGraph> graph;
  std::unique_ptr<DelayCalculator> calc;
  ArcDelays delays;
  timing::Constraints cx;

  HandBuilt() {
    clk = d.add_input_port("clk");
    din = d.add_input_port("din");
    ckbuf = d.add_cell("ckbuf", lib.find(CellFunc::kBuf, 8));
    ff1 = d.add_cell("ff1", lib.find(CellFunc::kDff, 2));
    ff2 = d.add_cell("ff2", lib.find(CellFunc::kDff, 2));
    inv = d.add_cell("inv", lib.find(CellFunc::kInv, 2));
    auto wire = [&](PinId drv, std::initializer_list<PinId> sinks,
                    double len) {
      std::string name = "w";
      name += std::to_string(d.num_nets());
      const NetId n = d.add_net(name);
      d.connect_driver(n, drv);
      for (const PinId s : sinks) d.connect_sink(n, s);
      d.net(n).length_hint = len;
    };
    wire(d.output_pin(din), {d.input_pin(ff1, 0)}, 12.0);
    wire(d.output_pin(clk), {d.input_pin(ckbuf, 0)}, 10.0);
    wire(d.output_pin(ckbuf), {d.clock_pin(ff1), d.clock_pin(ff2)}, 20.0);
    wire(d.output_pin(ff1), {d.input_pin(inv, 0)}, 15.0);
    wire(d.output_pin(inv), {d.input_pin(ff2, 0)}, 15.0);
    d.validate();
    graph = std::make_unique<TimingGraph>(d, clk);
    calc = std::make_unique<DelayCalculator>(d, *graph);
    calc->compute_all(delays);
    cx.clock_root = clk;
    cx.clock_period = 400.0;
    cx.nsigma = 3.0;
  }

  double mu(ArcId a, int rf) const { return delays.mu[rf][static_cast<std::size_t>(a)]; }
  double sig(ArcId a, int rf) const { return delays.sigma[rf][static_cast<std::size_t>(a)]; }
  ArcId only_net_arc(NetId n, PinId to) const {
    const auto [f, l] = graph->net_arcs(n);
    for (ArcId a = f; a < l; ++a) {
      if (graph->arc(a).to == to) return a;
    }
    return timing::kNullArc;
  }
};

TEST(HandBuilt, ClockArrivalsComposeFromArcDelays) {
  HandBuilt h;
  const timing::ClockAnalysis clock(*h.graph, h.delays, 3.0);
  ASSERT_TRUE(clock.has_clock());

  // Path to ff1/CK: net(clk->ckbuf) + cell(ckbuf) + net(ckbuf->ff1/CK),
  // all at the rising edge (rf index 0).
  const NetId n0 = h.d.pin(h.d.output_pin(h.clk)).net;
  const NetId n1 = h.d.pin(h.d.output_pin(h.ckbuf)).net;
  const ArcId a0 = h.only_net_arc(n0, h.d.input_pin(h.ckbuf, 0));
  const auto [bf, bl] = h.graph->cell_arcs(h.ckbuf);
  ASSERT_EQ(bl - bf, 1);
  const ArcId a1 = bf;
  const ArcId a2 = h.only_net_arc(n1, h.d.clock_pin(h.ff1));
  const double mu_expect = h.mu(a0, 0) + h.mu(a1, 0) + h.mu(a2, 0);
  const double sig2_expect = h.sig(a0, 0) * h.sig(a0, 0) +
                             h.sig(a1, 0) * h.sig(a1, 0) +
                             h.sig(a2, 0) * h.sig(a2, 0);
  EXPECT_NEAR(clock.ck_mu(h.ff1), mu_expect, 1e-12);
  EXPECT_NEAR(clock.ck_sig2(h.ff1), sig2_expect, 1e-12);
  EXPECT_NEAR(clock.late_ck(h.ff1), mu_expect + 3.0 * std::sqrt(sig2_expect),
              1e-12);
  EXPECT_NEAR(clock.early_ck(h.ff1), mu_expect - 3.0 * std::sqrt(sig2_expect),
              1e-12);
}

TEST(HandBuilt, CpprCreditIsLcaSpread) {
  HandBuilt h;
  const timing::ClockAnalysis clock(*h.graph, h.delays, 3.0);
  // LCA of ff1 and ff2 is the ckbuf output node: the common path is
  // net(clk->ckbuf) + cell(ckbuf).
  const NetId n0 = h.d.pin(h.d.output_pin(h.clk)).net;
  const ArcId a0 = h.only_net_arc(n0, h.d.input_pin(h.ckbuf, 0));
  const auto [bf, bl] = h.graph->cell_arcs(h.ckbuf);
  const double sig2_common =
      h.sig(a0, 0) * h.sig(a0, 0) + h.sig(bf, 0) * h.sig(bf, 0);
  EXPECT_NEAR(clock.credit(h.ff1, h.ff2), 2.0 * 3.0 * std::sqrt(sig2_common),
              1e-12);
  // Self-credit removes the whole clock path pessimism.
  EXPECT_NEAR(clock.credit(h.ff1, h.ff1),
              2.0 * 3.0 * std::sqrt(clock.ck_sig2(h.ff1)), 1e-12);
  // Symmetric; null cells yield zero.
  EXPECT_DOUBLE_EQ(clock.credit(h.ff1, h.ff2), clock.credit(h.ff2, h.ff1));
  EXPECT_DOUBLE_EQ(clock.credit(netlist::kNullCell, h.ff2), 0.0);
  EXPECT_GE(clock.max_credit(), clock.credit(h.ff1, h.ff2));
}

TEST(HandBuilt, EndpointSlackComposesFromParts) {
  HandBuilt h;
  ref::GoldenSta sta(*h.graph, h.cx, h.delays);
  sta.update_full();
  const timing::ClockAnalysis& clock = sta.clock();

  // Launch arrival at ff2/D (worst transition): ff1 launch + net + inv arc
  // + net. Compose with the RSS rules per transition and take the worst
  // corner.
  const NetId q_net = h.d.pin(h.d.output_pin(h.ff1)).net;
  const NetId inv_net = h.d.pin(h.d.output_pin(h.inv)).net;
  const ArcId a_q = h.only_net_arc(q_net, h.d.input_pin(h.inv, 0));
  const auto [invf, invl] = h.graph->cell_arcs(h.inv);
  ASSERT_EQ(invl - invf, 1);
  const ArcId a_d = h.only_net_arc(inv_net, h.d.input_pin(h.ff2, 0));
  const timing::StartpointId sp =
      h.graph->startpoint_of_pin(h.d.output_pin(h.ff1));
  const ref::GoldenSta::SpInit init = sta.sp_init(sp);

  double worst = -1e30;
  for (const int rf : {0, 1}) {
    // The inverter flips: output rf comes from input ~rf.
    const int qrf = 1 - rf;
    const double mu = init.mu[static_cast<std::size_t>(qrf)] + h.mu(a_q, qrf) +
                      h.mu(invf, rf) + h.mu(a_d, rf);
    const double sig2 =
        init.sigma[static_cast<std::size_t>(qrf)] *
            init.sigma[static_cast<std::size_t>(qrf)] +
        h.sig(a_q, qrf) * h.sig(a_q, qrf) + h.sig(invf, rf) * h.sig(invf, rf) +
        h.sig(a_d, rf) * h.sig(a_d, rf);
    worst = std::max(worst, mu + 3.0 * std::sqrt(sig2));
  }
  const timing::EndpointId ep =
      h.graph->endpoint_of_pin(h.d.input_pin(h.ff2, 0));
  EXPECT_NEAR(sta.worst_arrival(h.d.input_pin(h.ff2, 0)), worst, 1e-9);

  const netlist::LibCell& ff_lc = h.d.libcell_of(h.ff2);
  const double required = h.cx.clock_period + clock.early_ck(h.ff2) -
                          ff_lc.setup + clock.credit(h.ff1, h.ff2);
  EXPECT_NEAR(sta.endpoint_slack(ep), required - worst, 1e-9);
}

TEST(HandBuilt, ExceptionsChangeSlackAsSpecified) {
  HandBuilt h;
  const PinId sp_pin = h.d.output_pin(h.ff1);
  const PinId ep_pin = h.d.input_pin(h.ff2, 0);

  ref::GoldenSta plain(*h.graph, h.cx, h.delays);
  plain.update_full();
  const timing::EndpointId ep = h.graph->endpoint_of_pin(ep_pin);
  const double base_slack = plain.endpoint_slack(ep);
  ASSERT_TRUE(std::isfinite(base_slack));

  // Multicycle x2 adds exactly one period of slack.
  timing::Constraints mcp = h.cx;
  mcp.exceptions.push_back({timing::ExceptionKind::kMulticycle, sp_pin,
                            ep_pin, 2});
  ref::GoldenSta with_mcp(*h.graph, mcp, h.delays);
  with_mcp.update_full();
  EXPECT_NEAR(with_mcp.endpoint_slack(ep), base_slack + h.cx.clock_period,
              1e-9);

  // A false path on the only startpoint unconstrains the endpoint.
  timing::Constraints fp = h.cx;
  fp.exceptions.push_back({timing::ExceptionKind::kFalsePath, sp_pin, ep_pin,
                           2});
  ref::GoldenSta with_fp(*h.graph, fp, h.delays);
  with_fp.update_full();
  EXPECT_FALSE(std::isfinite(with_fp.endpoint_slack(ep)));
}

TEST(DelayCalc, MonotoneInLoadAndDrive) {
  HandBuilt h;
  // Resizing the inverter up must reduce its own arc delay (same load,
  // lower resistance) and increase the upstream net/driver load.
  const auto [invf, invl] = h.graph->cell_arcs(h.inv);
  const double before = h.mu(invf, 0);
  const NetId in_net = h.d.pin(h.d.input_pin(h.inv, 0)).net;
  const double load_before = h.calc->load(in_net);
  h.d.resize_cell(h.inv, h.lib.find(CellFunc::kInv, 16));
  h.calc->update_for_resize(h.inv, h.delays);
  EXPECT_LT(h.mu(invf, 0), before);
  EXPECT_GT(h.calc->load(in_net), load_before);
}

TEST(DelayCalc, ResizeUpdateMatchesFromScratch) {
  gen::GeneratedDesign gd = gen::build_logic_block(gen::tiny_spec(71));
  TimingGraph graph(*gd.design, gd.constraints.clock_root);
  DelayCalculator calc(*gd.design, graph);
  ArcDelays delays;
  calc.compute_all(delays);

  util::Rng rng(5);
  for (int step = 0; step < 10; ++step) {
    // Random legal resize.
    CellId cell = netlist::kNullCell;
    while (cell == netlist::kNullCell) {
      const auto cand = static_cast<CellId>(
          rng.uniform_int(0, static_cast<std::int64_t>(gd.design->num_cells()) - 1));
      const auto& lc = gd.design->libcell_of(cand);
      if (!netlist::is_sequential(lc.func) && netlist::has_output(lc.func) &&
          netlist::num_data_inputs(lc.func) > 0 && !graph.is_clock_cell(cand)) {
        cell = cand;
      }
    }
    const auto family = gd.design->library().family(
        gd.design->libcell_of(cell).func);
    gd.design->resize_cell(
        cell, family[static_cast<std::size_t>(
                  rng.uniform_int(0, static_cast<std::int64_t>(family.size()) - 1))]);
    calc.update_for_resize(cell, delays);
  }

  // The incrementally maintained delays must equal a from-scratch pass.
  DelayCalculator fresh(*gd.design, graph);
  ArcDelays scratch;
  fresh.compute_all(scratch);
  for (std::size_t a = 0; a < graph.num_arcs(); ++a) {
    for (const int rf : {0, 1}) {
      EXPECT_NEAR(delays.mu[rf][a], scratch.mu[rf][a], 1e-9)
          << "arc " << a << " rf " << rf;
      EXPECT_NEAR(delays.sigma[rf][a], scratch.sigma[rf][a], 1e-9);
    }
  }
}

TEST(DelayCalc, ComputeAllIsThreadCountInvariant) {
  // Large enough that each phase (nets, cells, sink slews, arcs) spans
  // several pool chunks.
  gen::LogicBlockSpec spec = gen::tiny_spec(83);
  spec.num_gates = 6000;
  spec.num_ffs = 300;
  gen::GeneratedDesign gd = gen::build_logic_block(spec);
  ASSERT_GT(gd.design->num_nets(), 4096u);
  ASSERT_GT(gd.design->num_cells(), 4096u);
  TimingGraph graph(*gd.design, gd.constraints.clock_root);
  util::Rng rng(3);
  for (std::size_t c = 0; c < gd.design->num_cells(); ++c) {
    netlist::Cell& cell = gd.design->cell(static_cast<CellId>(c));
    cell.x = rng.uniform() * 500.0;
    cell.y = rng.uniform() * 500.0;
  }

  for (const bool placed : {false, true}) {
    SCOPED_TRACE(placed ? "placement lengths" : "length hints");
    timing::DelayModelParams dm;
    dm.use_placement = placed;
    DelayCalculator par_calc(*gd.design, graph, dm);
    ArcDelays par;
    par_calc.compute_all(par);
    // A launch from inside a pool chunk runs inline on that chunk's thread,
    // so this compute_all is the serial reference.
    DelayCalculator ser_calc(*gd.design, graph, dm);
    ArcDelays ser;
    util::ThreadPool::global().parallel_for_chunks(
        std::size_t{0}, std::size_t{2},
        [&](std::size_t lo, std::size_t) {
          if (lo == 0) ser_calc.compute_all(ser);
        },
        1);

    const auto same = [](const std::vector<double>& a,
                         const std::vector<double>& b) {
      return a.size() == b.size() &&
             std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0;
    };
    for (const int rf : {0, 1}) {
      EXPECT_TRUE(same(par.mu[rf], ser.mu[rf])) << "mu rf " << rf;
      EXPECT_TRUE(same(par.sigma[rf], ser.sigma[rf])) << "sigma rf " << rf;
    }
    for (std::size_t n = 0; n < gd.design->num_nets(); ++n) {
      const auto net = static_cast<NetId>(n);
      ASSERT_EQ(std::bit_cast<std::uint64_t>(par_calc.load(net)),
                std::bit_cast<std::uint64_t>(ser_calc.load(net)))
          << "net " << n;
    }
    for (std::size_t p = 0; p < gd.design->num_pins(); ++p) {
      for (const auto rf : {netlist::RiseFall::kRise, netlist::RiseFall::kFall}) {
        const auto pin = static_cast<PinId>(p);
        ASSERT_EQ(std::bit_cast<std::uint64_t>(par_calc.slew(pin, rf)),
                  std::bit_cast<std::uint64_t>(ser_calc.slew(pin, rf)))
            << "pin " << p;
      }
    }
  }
}

TEST(DelayCalc, EstimateEcoIsLocalAndFrozen) {
  HandBuilt h;
  const auto before_delays = h.delays;  // copy
  const auto deltas = h.calc->estimate_eco(h.inv, h.lib.find(CellFunc::kInv, 16));
  // estimate_eco must not mutate anything.
  for (std::size_t a = 0; a < h.graph->num_arcs(); ++a) {
    EXPECT_EQ(h.delays.mu[0][a], before_delays.mu[0][a]);
  }
  // It must cover the cell's own arc, the input net arc and the driver
  // (ff1 launch) arc.
  std::unordered_map<ArcId, timing::ArcDelta> by_arc;
  for (const auto& d : deltas) by_arc[d.arc] = d;
  const auto [invf, invl] = h.graph->cell_arcs(h.inv);
  EXPECT_TRUE(by_arc.count(invf));
  const NetId q_net = h.d.pin(h.d.output_pin(h.ff1)).net;
  const ArcId a_q = h.only_net_arc(q_net, h.d.input_pin(h.inv, 0));
  EXPECT_TRUE(by_arc.count(a_q));
  const auto [ff1f, ff1l] = h.graph->cell_arcs(h.ff1);
  EXPECT_TRUE(by_arc.count(ff1f)) << "driver launch arc must be re-estimated";

  // Against the exact committed update: net arcs carry no slew term, so the
  // eco estimate is exact there; the cell's own arc differs by precisely
  // the frozen-slew error (the resize raises the driver's load, hence its
  // output slew, hence the cell's input slew — which estimate_eco froze).
  const double frozen_in_slew_fall =
      h.calc->slew(h.d.input_pin(h.inv, 0), netlist::RiseFall::kFall);
  h.d.resize_cell(h.inv, h.lib.find(CellFunc::kInv, 16));
  const auto changed = h.calc->update_for_resize(h.inv, h.delays);
  EXPECT_NEAR(by_arc[a_q].mu[0], h.mu(a_q, 0), 1e-9);
  const double new_in_slew_fall =
      h.calc->slew(h.d.input_pin(h.inv, 0), netlist::RiseFall::kFall);
  EXPECT_GT(new_in_slew_fall, frozen_in_slew_fall);
  const double slew_sens = h.d.libcell_of(h.inv).slew_sens;
  // Inverter rise output comes from the falling input transition.
  EXPECT_NEAR(h.mu(invf, 0) - by_arc[invf].mu[0],
              slew_sens * (new_in_slew_fall - frozen_in_slew_fall), 1e-9);
  EXPECT_GE(changed.size(), deltas.size());
}

TEST(ExceptionTable, ResolvesAndRejects) {
  HandBuilt h;
  timing::TimingException good{timing::ExceptionKind::kMulticycle,
                               h.d.output_pin(h.ff1),
                               h.d.input_pin(h.ff2, 0), 3};
  const timing::ExceptionTable table(*h.graph, {&good, 1});
  const auto sp = h.graph->startpoint_of_pin(h.d.output_pin(h.ff1));
  const auto ep = h.graph->endpoint_of_pin(h.d.input_pin(h.ff2, 0));
  EXPECT_FALSE(table.is_false_path(sp, ep));
  EXPECT_DOUBLE_EQ(table.required_shift(sp, ep, 100.0), 200.0);
  // Pairs without an exception get no shift.
  const auto other_ep = h.graph->endpoint_of_pin(h.d.input_pin(h.ff1, 0));
  EXPECT_DOUBLE_EQ(table.required_shift(sp, other_ep, 100.0), 0.0);
  EXPECT_FALSE(table.is_false_path(sp, other_ep));
  // The startpoint an exception names is flagged; the others are not.
  EXPECT_TRUE(table.names_startpoint(sp));
  EXPECT_FALSE(table.names_startpoint(
      h.graph->startpoint_of_pin(h.d.output_pin(h.ff2))));

  timing::TimingException bad = good;
  bad.sp_pin = h.d.input_pin(h.inv, 0);  // not a startpoint
  EXPECT_THROW(timing::ExceptionTable(*h.graph, {&bad, 1}), util::CheckError);
}

}  // namespace
}  // namespace insta
