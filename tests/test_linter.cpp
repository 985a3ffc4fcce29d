// Tests of the analysis/ linter subsystem: each rule fires on a crafted
// broken design with its exact rule id, and clean generated designs lint
// with zero diagnostics.

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <utility>
#include <vector>

#include "analysis/engine_audit.hpp"
#include "analysis/linter.hpp"
#include "core/engine.hpp"
#include "gen/logic_block.hpp"
#include "gen/presets.hpp"
#include "ref/golden_sta.hpp"
#include "timing/delay_calc.hpp"
#include "timing/graph.hpp"

namespace insta {
namespace {

using analysis::LintOptions;
using analysis::LintReport;
using analysis::Linter;
using analysis::Severity;
using netlist::CellFunc;
using netlist::CellId;
using netlist::Library;
using netlist::NetId;
using netlist::PinId;
using timing::TimingGraph;

constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();

/// Wires `drv` to `sinks` through a fresh net.
NetId wire(netlist::Design& d, PinId drv, std::initializer_list<PinId> sinks) {
  std::string name = "w";
  name += std::to_string(d.num_nets());
  const NetId net = d.add_net(name);
  d.connect_driver(net, drv);
  for (const PinId s : sinks) d.connect_sink(net, s);
  return net;
}

// ---- clean designs ---------------------------------------------------------

/// Lints a generated design with every stage bound; expects zero diagnostics.
void expect_clean(const gen::GeneratedDesign& gd) {
  TimingGraph graph(*gd.design, gd.constraints.clock_roots());
  timing::DelayCalculator calc(*gd.design, graph);
  timing::ArcDelays delays;
  calc.compute_all(delays);
  Linter linter(*gd.design);
  linter.with_constraints(gd.constraints).with_graph(graph).with_delays(delays);
  const LintReport report = linter.run();
  EXPECT_TRUE(report.empty()) << gd.name << ":\n" << report.str();
}

TEST(LinterClean, TinyPresets) {
  for (const std::uint64_t seed : {1ull, 7ull, 42ull}) {
    expect_clean(gen::build_logic_block(gen::tiny_spec(seed)));
  }
}

TEST(LinterClean, Table2Presets) {
  for (const gen::LogicBlockSpec& spec : gen::table2_iwls_specs()) {
    expect_clean(gen::build_logic_block(spec));
  }
}

TEST(LinterClean, Fig7Preset) {
  expect_clean(gen::build_logic_block(gen::fig7_block_spec()));
}

TEST(LinterClean, Table1Presets) {
  for (const gen::LogicBlockSpec& spec : gen::table1_block_specs()) {
    expect_clean(gen::build_logic_block(spec));
  }
}

// ---- combinational-loop -----------------------------------------------------

TEST(LinterRules, CombinationalLoop) {
  Library lib = netlist::make_default_library();
  netlist::Design d(lib);
  const CellId i1 = d.add_cell("i1", lib.find(CellFunc::kInv, 1));
  const CellId i2 = d.add_cell("i2", lib.find(CellFunc::kInv, 1));
  wire(d, d.output_pin(i1), {d.input_pin(i2, 0)});
  wire(d, d.output_pin(i2), {d.input_pin(i1, 0)});

  const LintReport report = Linter(d).run();
  EXPECT_EQ(report.count_rule("combinational-loop"), 1u);
  EXPECT_TRUE(report.has_errors());
  // The two-inverter ring violates nothing else.
  EXPECT_EQ(report.size(), report.count_rule("combinational-loop"));
}

TEST(LinterRules, TwoIndependentLoops) {
  Library lib = netlist::make_default_library();
  netlist::Design d(lib);
  for (int ring = 0; ring < 2; ++ring) {
    std::string a_name = "a";
    a_name += std::to_string(ring);
    std::string b_name = "b";
    b_name += std::to_string(ring);
    const CellId a = d.add_cell(a_name, lib.find(CellFunc::kBuf, 1));
    const CellId b = d.add_cell(b_name, lib.find(CellFunc::kBuf, 1));
    wire(d, d.output_pin(a), {d.input_pin(b, 0)});
    wire(d, d.output_pin(b), {d.input_pin(a, 0)});
  }
  const LintReport report = Linter(d).run();
  EXPECT_EQ(report.count_rule("combinational-loop"), 2u);
}

// ---- undriven-pin + unconstrained-endpoint ----------------------------------

TEST(LinterRules, UndrivenPinAndUnconstrainedEndpoint) {
  Library lib = netlist::make_default_library();
  netlist::Design d(lib);
  const CellId buf = d.add_cell("u1", lib.find(CellFunc::kBuf, 1));
  const CellId po = d.add_output_port("o");
  // u1/A is left unconnected, and the net feeding the output port has no
  // driver: both are undriven-pin findings, and the output port's endpoint
  // is unreachable from any startpoint.
  const NetId n = d.add_net("floating");
  d.connect_sink(n, d.input_pin(po, 0));
  static_cast<void>(buf);

  const LintReport report = Linter(d).run();
  EXPECT_EQ(report.count_rule("undriven-pin"), 2u);  // u1/A + net "floating"
  EXPECT_EQ(report.count_rule("unconstrained-endpoint"), 1u);
  EXPECT_GE(report.count(Severity::kError), 2u);
  EXPECT_EQ(report.count(Severity::kWarning), 1u);
}

// ---- multi-driver -----------------------------------------------------------

TEST(LinterRules, MultiDriver) {
  Library lib = netlist::make_default_library();
  netlist::Design d(lib);
  const CellId a = d.add_input_port("a");
  const CellId b = d.add_input_port("b");
  const CellId buf = d.add_cell("u1", lib.find(CellFunc::kBuf, 1));
  const NetId n = wire(d, d.output_pin(a), {d.input_pin(buf, 0)});
  // Corrupt the net: a second output pin in the sink list.
  d.net(n).sinks.push_back(d.output_pin(b));

  const LintReport report = Linter(d).run();
  EXPECT_GE(report.count_rule("multi-driver"), 1u);
  EXPECT_TRUE(report.has_errors());
}

TEST(LinterRules, PinReferencedTwice) {
  Library lib = netlist::make_default_library();
  netlist::Design d(lib);
  const CellId a = d.add_input_port("a");
  const CellId b1 = d.add_cell("u1", lib.find(CellFunc::kBuf, 1));
  const CellId b2 = d.add_cell("u2", lib.find(CellFunc::kBuf, 1));
  wire(d, d.output_pin(a), {d.input_pin(b1, 0)});
  const NetId n2 = wire(d, d.output_pin(b2), {});
  // u1/A now appears in two sink lists (its back-link still names the first
  // net): both the multi-driver ref count and the mismatch rule fire.
  d.net(n2).sinks.push_back(d.input_pin(b1, 0));

  const LintReport report = Linter(d).run();
  EXPECT_GE(report.count_rule("multi-driver"), 1u);
  EXPECT_GE(report.count_rule("pin-net-mismatch"), 1u);
}

// ---- liberty-value ----------------------------------------------------------

TEST(LinterRules, LibertyNaN) {
  Library lib;
  netlist::LibCell lc;
  lc.name = "bad_buf";
  lc.func = CellFunc::kBuf;
  lc.intrinsic = {kNaN, 4.0};
  lib.add(lc);
  netlist::Design d(lib);

  const LintReport report = Linter(d).run();
  EXPECT_EQ(report.count_rule("liberty-value"), 1u);
  EXPECT_TRUE(report.has_errors());
}

TEST(LinterRules, LibertyNegativeSigma) {
  Library lib;
  netlist::LibCell lc;
  lc.name = "bad_sigma";
  lc.func = CellFunc::kInv;
  lc.sigma_ratio = -0.05;
  lib.add(lc);
  netlist::Design d(lib);

  const LintReport report = Linter(d).run();
  EXPECT_EQ(report.count_rule("liberty-value"), 1u);
  EXPECT_TRUE(report.has_errors());
}

// ---- no-capture-clock / clock-tree-topology ---------------------------------

TEST(LinterRules, NoClockRootDeclared) {
  gen::GeneratedDesign gd = gen::build_logic_block(gen::tiny_spec(1));
  timing::Constraints broken = gd.constraints;
  broken.clock_root = netlist::kNullCell;
  broken.extra_clocks.clear();
  const LintReport report =
      Linter(*gd.design).with_constraints(broken).run();
  EXPECT_GE(report.count_rule("no-capture-clock"), 1u);
  EXPECT_TRUE(report.has_errors());
}

TEST(LinterRules, ClockPinOutsideClockTree) {
  Library lib = netlist::make_default_library();
  netlist::Design d(lib);
  const CellId clk = d.add_input_port("clk");
  const CellId other = d.add_input_port("other");
  const CellId din = d.add_input_port("din");
  const CellId ff = d.add_cell("ff1", lib.find(CellFunc::kDff, 1));
  const CellId po = d.add_output_port("q");
  // The FF clock pin hangs off "other", not the declared root "clk".
  wire(d, d.output_pin(other), {d.clock_pin(ff)});
  wire(d, d.output_pin(din), {d.input_pin(ff, 0)});
  wire(d, d.output_pin(ff), {d.input_pin(po, 0)});
  timing::Constraints cons;
  cons.clock_root = clk;

  const LintReport report = Linter(d).with_constraints(cons).run();
  EXPECT_EQ(report.count_rule("no-capture-clock"), 1u);
}

TEST(LinterRules, ClockTreeThroughNand) {
  Library lib = netlist::make_default_library();
  netlist::Design d(lib);
  const CellId clk = d.add_input_port("clk");
  const CellId din = d.add_input_port("din");
  const CellId gate = d.add_cell("g1", lib.find(CellFunc::kNand2, 1));
  const CellId ff = d.add_cell("ff1", lib.find(CellFunc::kDff, 1));
  const CellId po = d.add_output_port("q");
  // Clock net fans out into a NAND input: gated clock, which the graph
  // builder rejects outright; the linter reports it instead.
  wire(d, d.output_pin(clk), {d.clock_pin(ff), d.input_pin(gate, 0)});
  wire(d, d.output_pin(din), {d.input_pin(ff, 0), d.input_pin(gate, 1)});
  wire(d, d.output_pin(ff), {d.input_pin(po, 0)});
  wire(d, d.output_pin(gate), {});
  timing::Constraints cons;
  cons.clock_root = clk;

  const LintReport report = Linter(d).with_constraints(cons).run();
  EXPECT_EQ(report.count_rule("clock-tree-topology"), 1u);
}

// ---- delay-value ------------------------------------------------------------

TEST(LinterRules, PoisonedDelays) {
  gen::GeneratedDesign gd = gen::build_logic_block(gen::tiny_spec(2));
  TimingGraph graph(*gd.design, gd.constraints.clock_roots());
  timing::DelayCalculator calc(*gd.design, graph);
  timing::ArcDelays delays;
  calc.compute_all(delays);
  delays.mu[0][3] = kNaN;     // error
  delays.mu[1][4] = -12.0;    // warning
  delays.sigma[0][5] = -1.0;  // error

  Linter linter(*gd.design);
  linter.with_constraints(gd.constraints).with_graph(graph).with_delays(delays);
  const LintReport report = linter.run();
  EXPECT_EQ(report.count_rule("delay-value"), 3u);
  EXPECT_EQ(report.count(Severity::kError), 2u);
  EXPECT_EQ(report.count(Severity::kWarning), 1u);
}

// ---- level-inversion --------------------------------------------------------

TEST(LinterRules, FindLevelInversions) {
  const std::vector<std::pair<int, int>> edges = {
      {0, 1},   // ok
      {2, 2},   // not strictly increasing
      {-1, 3},  // unleveled tail
      {3, 1},   // decreasing
      {5, 9},   // ok
  };
  const std::vector<std::size_t> bad = analysis::find_level_inversions(edges);
  EXPECT_EQ(bad, (std::vector<std::size_t>{1, 2, 3}));
}

// ---- topk-invariant ---------------------------------------------------------

TEST(LinterAudit, TopkEntriesViolations) {
  using Entry = core::Engine::TopKEntry;
  // Sorted, unique, finite: clean.
  {
    LintReport report;
    const std::vector<Entry> ok = {{10.0f, 9.0f, 0.3f, 0},
                                   {8.0f, 7.5f, 0.2f, 1}};
    analysis::audit_topk_entries(ok, 4, "pin", report);
    EXPECT_TRUE(report.empty()) << report.str();
  }
  // Overfull list.
  {
    LintReport report;
    const std::vector<Entry> over = {{3.0f, 3.0f, 0.0f, 0},
                                     {2.0f, 2.0f, 0.0f, 1},
                                     {1.0f, 1.0f, 0.0f, 2}};
    analysis::audit_topk_entries(over, 2, "pin", report);
    EXPECT_EQ(report.count_rule("topk-invariant"), 1u);
  }
  // Duplicate startpoint tag.
  {
    LintReport report;
    const std::vector<Entry> dup = {{3.0f, 3.0f, 0.0f, 7},
                                    {2.0f, 2.0f, 0.0f, 7}};
    analysis::audit_topk_entries(dup, 4, "pin", report);
    EXPECT_EQ(report.count_rule("topk-invariant"), 1u);
  }
  // Unsorted arrivals.
  {
    LintReport report;
    const std::vector<Entry> unsorted = {{2.0f, 2.0f, 0.0f, 0},
                                         {3.0f, 3.0f, 0.0f, 1}};
    analysis::audit_topk_entries(unsorted, 4, "pin", report);
    EXPECT_EQ(report.count_rule("topk-invariant"), 1u);
  }
  // NaN arrival, negative sigma, invalid tag: one finding each.
  {
    LintReport report;
    const std::vector<Entry> bad = {
        {std::numeric_limits<float>::quiet_NaN(), 1.0f, 0.1f, 0},
        {0.5f, 0.5f, -0.1f, -3}};
    analysis::audit_topk_entries(bad, 4, "pin", report);
    EXPECT_EQ(report.count_rule("topk-invariant"), 3u);
  }
}

TEST(LinterAudit, EngineCleanAfterForward) {
  gen::GeneratedDesign gd = gen::build_logic_block(gen::tiny_spec(3));
  TimingGraph graph(*gd.design, gd.constraints.clock_root);
  timing::DelayCalculator calc(*gd.design, graph);
  timing::ArcDelays delays;
  calc.compute_all(delays);
  ref::GoldenSta sta(graph, gd.constraints, delays, {});
  sta.update_full();
  core::Engine engine(sta, {});
  engine.run_forward();

  const LintReport report = analysis::audit_engine(engine);
  EXPECT_TRUE(report.empty()) << report.str();
}

// ---- reporting mechanics ----------------------------------------------------

TEST(LinterReport, SuppressionKeepsExactCounts) {
  Library lib = netlist::make_default_library();
  netlist::Design d(lib);
  // Ten unconnected buffer inputs, reporting capped at three.
  for (int i = 0; i < 10; ++i) {
    std::string name = "u";
    name += std::to_string(i);
    d.add_cell(name, lib.find(CellFunc::kBuf, 1));
  }
  LintOptions opt;
  opt.max_reports_per_rule = 3;
  const LintReport report = Linter(d).with_options(opt).run();
  EXPECT_EQ(report.count(Severity::kError), 3u);       // listed
  EXPECT_EQ(report.count_rule("undriven-pin"), 10u);   // exact, with elided
  EXPECT_NE(report.str().find("7 further"), std::string::npos) << report.str();
}

TEST(LinterReport, DiagnosticRendering) {
  analysis::Diagnostic diag;
  diag.rule = "combinational-loop";
  diag.severity = Severity::kError;
  diag.kind = analysis::ObjectKind::kPin;
  diag.object = 4;
  diag.where = "u1/A";
  diag.message = "cycle";
  EXPECT_EQ(diag.str(), "error[combinational-loop] u1/A: cycle");

  LintReport report;
  report.add(std::move(diag));
  EXPECT_TRUE(report.has_errors());
  EXPECT_EQ(report.count(Severity::kError), 1u);
  EXPECT_EQ(report.count(Severity::kWarning), 0u);
  EXPECT_NE(report.str().find("1 error"), std::string::npos);
}

}  // namespace
}  // namespace insta
