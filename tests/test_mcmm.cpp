// Multi-corner/multi-mode propagation: a C-corner engine must be
// bit-identical, corner for corner, to C independent single-corner engines
// built with the same scale sets — through the dense forward pass, the
// frontier-sparse incremental pass, endpoint evaluation (setup and hold),
// the aggregate caches, and ScenarioBatch's corner × delta-set cross
// product. Also covers the corner-aware API surface (corner_id, targeted
// vs broadcast annotate, merged_summary semantics) and the analysis-layer
// corner lint rules.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "analysis/rules.hpp"
#include "core/engine.hpp"
#include "core/scenario_batch.hpp"
#include "gen/changelist.hpp"
#include "gen/logic_block.hpp"
#include "gen/presets.hpp"
#include "gen/tune.hpp"
#include "ref/golden_sta.hpp"
#include "timing/delay_calc.hpp"
#include "util/check.hpp"
#include "util/rng.hpp"

namespace insta {
namespace {

using core::CornerId;
using core::CornerSpec;
using core::Mode;
using core::SlackSummary;

/// The corner set all multi-corner tests use: a byte-exact default corner
/// plus a faster and a slower scale set.
std::vector<CornerSpec> three_corners() {
  return {CornerSpec{"typ", 1.0f, 1.0f}, CornerSpec{"fast", 0.9f, 0.95f},
          CornerSpec{"slow", 1.12f, 1.05f}};
}

struct Fixture {
  gen::GeneratedDesign gd;
  std::unique_ptr<timing::TimingGraph> graph;
  std::unique_ptr<timing::DelayCalculator> calc;
  timing::ArcDelays delays;
  std::unique_ptr<ref::GoldenSta> sta;

  explicit Fixture(std::uint64_t seed, bool hold = false) {
    gd = gen::build_logic_block(gen::tiny_spec(seed));
    graph = std::make_unique<timing::TimingGraph>(*gd.design,
                                                  gd.constraints.clock_root);
    calc = std::make_unique<timing::DelayCalculator>(*gd.design, *graph);
    calc->compute_all(delays);
    gen::tune_clock_period(*graph, gd.constraints, delays, 0.1);
    ref::GoldenOptions gopt;
    gopt.enable_hold = hold;
    sta = std::make_unique<ref::GoldenSta>(*graph, gd.constraints, delays,
                                           gopt);
    sta->update_full();
  }

  [[nodiscard]] core::Engine make_engine(std::vector<CornerSpec> corners,
                                         bool hold = false) const {
    core::EngineOptions opt;
    opt.top_k = 8;
    opt.enable_hold = hold;
    opt.corners = std::move(corners);
    return core::Engine(*sta, opt);
  }
};

/// Bitwise float equality that also matches non-finite pairs.
::testing::AssertionResult same_bits(float a, float b) {
  if (a == b || (std::isnan(a) && std::isnan(b)) ||
      (std::isinf(a) && std::isinf(b) && std::signbit(a) == std::signbit(b))) {
    return ::testing::AssertionSuccess();
  }
  return ::testing::AssertionFailure()
         << a << " != " << b << " (bitwise)";
}

/// Asserts corner `c` of `multi` matches the single-corner `solo` exactly:
/// every endpoint slack (setup and, when enabled, hold) and every
/// aggregate cache, bit for bit.
void expect_corner_identical(const core::Engine& multi, CornerId c,
                             const core::Engine& solo, bool hold) {
  const auto multi_slacks = multi.endpoint_slacks(c);
  const auto solo_slacks = solo.endpoint_slacks();
  ASSERT_EQ(multi_slacks.size(), solo_slacks.size());
  for (std::size_t e = 0; e < solo_slacks.size(); ++e) {
    EXPECT_TRUE(same_bits(multi_slacks[e], solo_slacks[e]))
        << "corner " << c << " endpoint " << e;
  }
  EXPECT_EQ(multi.tns(c), solo.tns());
  EXPECT_EQ(multi.wns(c), solo.wns());
  EXPECT_EQ(multi.num_violations(c), solo.num_violations());
  EXPECT_EQ(multi.summary(Mode::kSetup, c), solo.summary(Mode::kSetup, 0));
  if (!hold) return;
  for (std::size_t e = 0; e < solo_slacks.size(); ++e) {
    const auto ep = static_cast<timing::EndpointId>(e);
    EXPECT_TRUE(
        same_bits(multi.endpoint_hold_slack(ep, c), solo.endpoint_hold_slack(ep)))
        << "corner " << c << " hold endpoint " << e;
  }
  EXPECT_EQ(multi.ths(c), solo.ths());
  EXPECT_EQ(multi.whs(c), solo.whs());
  EXPECT_EQ(multi.num_hold_violations(c), solo.num_hold_violations());
  EXPECT_EQ(multi.summary(Mode::kHold, c), solo.summary(Mode::kHold, 0));
}

class Mcmm : public ::testing::TestWithParam<std::uint64_t> {};

/// Dense forward: C corners in one engine == C independent engines.
TEST_P(Mcmm, DenseForwardMatchesIndependentEngines) {
  const Fixture f(GetParam());
  const auto corners = three_corners();
  core::Engine multi = f.make_engine(corners);
  multi.run_forward();
  ASSERT_EQ(multi.num_corners(), corners.size());
  for (std::size_t c = 0; c < corners.size(); ++c) {
    core::Engine solo = f.make_engine({corners[c]});
    solo.run_forward();
    expect_corner_identical(multi, static_cast<CornerId>(c), solo, false);
  }
}

/// Same bit-identity through the hold (early/min) planes.
TEST_P(Mcmm, HoldPlanesMatchIndependentEngines) {
  const Fixture f(GetParam(), /*hold=*/true);
  const auto corners = three_corners();
  core::Engine multi = f.make_engine(corners, /*hold=*/true);
  multi.run_forward();
  for (std::size_t c = 0; c < corners.size(); ++c) {
    core::Engine solo = f.make_engine({corners[c]}, /*hold=*/true);
    solo.run_forward();
    expect_corner_identical(multi, static_cast<CornerId>(c), solo, true);
  }
}

/// Frontier-sparse incremental: a randomized sequence of broadcast
/// annotates + run_forward_incremental keeps every corner bit-identical to
/// its independent twin replaying the same sequence.
TEST_P(Mcmm, IncrementalSparseMatchesIndependentEngines) {
  const Fixture f(GetParam(), /*hold=*/true);
  const auto corners = three_corners();
  core::Engine multi = f.make_engine(corners, /*hold=*/true);
  multi.run_forward();
  std::vector<core::Engine> solos;
  for (const CornerSpec& spec : corners) {
    solos.push_back(f.make_engine({spec}, /*hold=*/true));
    solos.back().run_forward();
  }

  util::Rng rng(GetParam() * 31 + 5);
  const std::vector<gen::Resize> changes =
      gen::random_changelist(*f.gd.design, *f.graph, rng, 6);
  for (const gen::Resize& rz : changes) {
    const auto deltas = f.calc->estimate_eco(rz.cell, rz.new_libcell);
    multi.annotate(deltas);
    multi.run_forward_incremental();
    for (std::size_t c = 0; c < corners.size(); ++c) {
      solos[c].annotate(deltas);
      solos[c].run_forward_incremental();
      expect_corner_identical(multi, static_cast<CornerId>(c), solos[c],
                              true);
    }
  }
}

/// Targeted annotate touches exactly its corner: the others keep their
/// bytes, the target matches an independent engine given the same edit.
TEST_P(Mcmm, TargetedAnnotateIsolatesCorners) {
  const Fixture f(GetParam());
  const auto corners = three_corners();
  core::Engine multi = f.make_engine(corners);
  multi.run_forward();
  std::vector<core::Engine> solos;
  for (const CornerSpec& spec : corners) {
    solos.push_back(f.make_engine({spec}));
    solos.back().run_forward();
  }

  util::Rng rng(GetParam() * 13 + 2);
  const std::vector<gen::Resize> changes =
      gen::random_changelist(*f.gd.design, *f.graph, rng, 3);
  const CornerId target = 1;  // "fast"
  for (const gen::Resize& rz : changes) {
    const auto deltas = f.calc->estimate_eco(rz.cell, rz.new_libcell);
    multi.annotate(deltas, target);
    solos[static_cast<std::size_t>(target)].annotate(deltas);
  }
  multi.run_forward_incremental();
  solos[static_cast<std::size_t>(target)].run_forward_incremental();
  for (std::size_t c = 0; c < corners.size(); ++c) {
    expect_corner_identical(multi, static_cast<CornerId>(c), solos[c], false);
  }
}

/// merged_summary is the endpoint-major worst-case fold across corners.
TEST_P(Mcmm, MergedSummaryIsPerEndpointWorstCase) {
  const Fixture f(GetParam());
  core::Engine multi = f.make_engine(three_corners());
  multi.run_forward();

  const std::size_t num_eps = f.graph->endpoints().size();
  double tns = 0.0;
  double wns = 0.0;
  bool any = false;
  int violations = 0;
  for (std::size_t e = 0; e < num_eps; ++e) {
    float m = std::numeric_limits<float>::infinity();
    for (std::size_t c = 0; c < multi.num_corners(); ++c) {
      const float s = multi.endpoint_slacks(static_cast<CornerId>(c))[e];
      if (std::isfinite(s) && s < m) m = s;
    }
    if (!std::isfinite(m)) continue;
    if (!any || m < wns) wns = m;
    any = true;
    if (m < 0.0f) {
      tns += m;
      ++violations;
    }
  }
  const SlackSummary merged = multi.merged_summary(Mode::kSetup);
  EXPECT_EQ(merged.tns, tns);
  EXPECT_EQ(merged.wns, any ? wns : 0.0);
  EXPECT_EQ(merged.violations, violations);

  // On a single-corner engine the merged view IS corner 0.
  core::Engine solo = f.make_engine({});
  solo.run_forward();
  EXPECT_EQ(solo.merged_summary(Mode::kSetup), solo.summary(Mode::kSetup, 0));
}

/// A resize with a wide early ripple: among the cells random_changelist
/// could pick, the shallowest one, ties going to the cell whose output
/// drives the most data arcs.
gen::Resize shallow_high_fanout_resize(const Fixture& f) {
  const netlist::Design& design = *f.gd.design;
  gen::Resize best;
  std::size_t best_fanout = 0;
  int best_level = std::numeric_limits<int>::max();
  for (std::size_t c = 0; c < design.num_cells(); ++c) {
    const auto id = static_cast<netlist::CellId>(c);
    const netlist::LibCell& lc = design.libcell_of(id);
    if (netlist::is_sequential(lc.func) || !netlist::has_output(lc.func) ||
        netlist::num_data_inputs(lc.func) == 0 || f.graph->is_clock_cell(id) ||
        design.library().family(lc.func).size() < 2) {
      continue;
    }
    const netlist::PinId out = design.output_pin(id);
    const std::size_t fanout = f.graph->fanout(out).size();
    const int level = f.graph->level_of(out);
    if (level < best_level || (level == best_level && fanout > best_fanout)) {
      const auto family = design.library().family(lc.func);
      best = gen::Resize{id, family.back() != lc.id ? family.back()
                                                    : family.front()};
      best_fanout = fanout;
      best_level = level;
    }
  }
  return best;
}

void expect_same_endpoint_changes(
    const std::vector<core::EndpointSlackChange>& a,
    const std::vector<core::EndpointSlackChange>& b, const std::string& what) {
  ASSERT_EQ(a.size(), b.size()) << what;
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].ep, b[i].ep) << what << " change " << i;
    EXPECT_TRUE(same_bits(a[i].setup, b[i].setup)) << what << " change " << i;
    EXPECT_TRUE(same_bits(a[i].hold, b[i].hold)) << what << " change " << i;
  }
}

/// ScenarioBatch broadcasts each delta-set across the corners as one
/// (scenario, corner) cell per pair. Both dispatch shapes run with hold and
/// endpoint collection on: 16 scenarios, one of them a shallow high-fanout
/// resize (one pool task per cell), and the first 2 of them (cells on the
/// level-parallel kernels), which must reproduce the 16-scenario results.
/// Per-corner summaries must be bit-identical to single-corner batches,
/// every work counter must be the sum of the single-corner ones, endpoint
/// changes must be corner 0's, and the merged summary must be the one the
/// engine reports after committing the deltas.
TEST_P(Mcmm, ScenarioBatchCrossProductMatchesSingleCornerBatches) {
  const Fixture f(GetParam(), /*hold=*/true);
  const auto corners = three_corners();
  core::Engine multi = f.make_engine(corners, /*hold=*/true);
  multi.run_forward();

  util::Rng rng(GetParam() * 97 + 3);
  std::vector<gen::Resize> changes{shallow_high_fanout_resize(f)};
  ASSERT_NE(changes[0].cell, netlist::kNullCell);
  for (const gen::Resize& rz :
       gen::random_changelist(*f.gd.design, *f.graph, rng, 15)) {
    changes.push_back(rz);
  }
  std::vector<std::vector<timing::ArcDelta>> all;
  for (const gen::Resize& rz : changes) {
    all.push_back(f.calc->estimate_eco(rz.cell, rz.new_libcell));
  }

  std::vector<core::Engine> solos;
  for (std::size_t c = 0; c < corners.size(); ++c) {
    solos.push_back(f.make_engine({corners[c]}, /*hold=*/true));
    solos.back().run_forward();
  }

  std::vector<core::ScenarioResult> cell_parallel;  // the B = 16 results
  for (const std::size_t num_scenarios : {std::size_t{16}, std::size_t{2}}) {
    const std::vector<std::vector<timing::ArcDelta>> scenarios(
        all.begin(), all.begin() + static_cast<std::ptrdiff_t>(num_scenarios));
    std::vector<std::vector<core::ScenarioResult>> solo_results;
    for (core::Engine& solo : solos) {
      core::ScenarioBatch solo_batch(solo, {.collect_endpoints = true});
      solo_results.push_back(solo_batch.evaluate(scenarios));
    }

    core::ScenarioBatch batch(multi, {.collect_endpoints = true});
    const std::vector<core::ScenarioResult> results = batch.evaluate(scenarios);
    ASSERT_EQ(results.size(), num_scenarios);
    for (std::size_t i = 0; i < num_scenarios; ++i) {
      const std::string what = "B=" + std::to_string(num_scenarios) +
                               " scenario " + std::to_string(i);
      const core::ScenarioResult& r = results[i];
      ASSERT_EQ(r.setup_by_corner.size(), corners.size()) << what;
      ASSERT_EQ(r.hold_by_corner.size(), corners.size()) << what;
      std::uint64_t frontier_pins = 0;
      std::uint64_t early_terminations = 0;
      std::uint64_t endpoints_evaluated = 0;
      std::size_t overlay_bytes = 0;
      for (std::size_t c = 0; c < corners.size(); ++c) {
        const core::ScenarioResult& solo = solo_results[c][i];
        EXPECT_EQ(r.setup_by_corner[c], solo.setup) << what << " corner " << c;
        EXPECT_EQ(r.hold_by_corner[c], solo.hold) << what << " corner " << c;
        frontier_pins += solo.frontier_pins;
        early_terminations += solo.early_terminations;
        endpoints_evaluated += solo.endpoints_evaluated;
        overlay_bytes += solo.overlay_bytes;
      }
      EXPECT_EQ(r.frontier_pins, frontier_pins) << what;
      EXPECT_EQ(r.early_terminations, early_terminations) << what;
      EXPECT_EQ(r.endpoints_evaluated, endpoints_evaluated) << what;
      EXPECT_EQ(r.overlay_bytes, overlay_bytes) << what;
      expect_same_endpoint_changes(r.endpoint_changes,
                                   solo_results[0][i].endpoint_changes, what);

      if (!cell_parallel.empty()) {
        EXPECT_EQ(r.setup, cell_parallel[i].setup) << what;
        EXPECT_EQ(r.hold, cell_parallel[i].hold) << what;
      }
    }
    if (cell_parallel.empty()) cell_parallel = results;
  }

  // The shallow high-fanout resize is the heavy cell of the batch: it
  // ripples at least as far as three quarters of the random resizes.
  core::ScenarioBatch batch(multi);
  const std::vector<core::ScenarioResult> results = batch.evaluate(all);
  std::size_t lighter = 0;
  for (std::size_t i = 1; i < results.size(); ++i) {
    if (results[i].frontier_pins <= results[0].frontier_pins) ++lighter;
  }
  EXPECT_GE(lighter * 4, (results.size() - 1) * 3);

  // Merged == what Engine reports after actually committing the deltas.
  for (std::size_t i = 0; i < all.size(); ++i) {
    core::Engine committed = f.make_engine(corners, /*hold=*/true);
    committed.run_forward();
    committed.annotate(all[i]);
    committed.run_forward_incremental();
    EXPECT_EQ(results[i].setup, committed.merged_summary(Mode::kSetup))
        << "scenario " << i;
    EXPECT_EQ(results[i].hold, committed.merged_summary(Mode::kHold))
        << "scenario " << i;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, Mcmm, ::testing::Values(3u, 11u, 29u));

/// corner_id resolves names; unknown names map to kAllCorners.
TEST(McmmApi, CornerIdLookup) {
  const Fixture f(5);
  core::Engine engine = f.make_engine(three_corners());
  EXPECT_EQ(engine.corner_id("typ"), 0);
  EXPECT_EQ(engine.corner_id("fast"), 1);
  EXPECT_EQ(engine.corner_id("slow"), 2);
  EXPECT_EQ(engine.corner_id("nope"), core::kAllCorners);

  core::Engine dflt = f.make_engine({});
  EXPECT_EQ(dflt.num_corners(), 1u);
  EXPECT_EQ(dflt.corners()[0].name, "default");
}

/// Invalid corner sets are rejected by EngineOptions::validate (and hence
/// the Engine constructor), matching the analysis lint rules.
TEST(McmmApi, EngineOptionsRejectBadCorners) {
  core::EngineOptions opt;
  opt.corners = {CornerSpec{"a", 1.0f, 1.0f}, CornerSpec{"a", 1.1f, 1.0f}};
  EXPECT_FALSE(opt.validate().empty());  // duplicate name
  opt.corners = {CornerSpec{"", 1.0f, 1.0f}};
  EXPECT_FALSE(opt.validate().empty());  // empty name
  opt.corners = {CornerSpec{"x", -1.0f, 1.0f}};
  EXPECT_FALSE(opt.validate().empty());  // negative delay scale
  opt.corners = {CornerSpec{"x", 1.0f, 0.0f}};
  EXPECT_FALSE(opt.validate().empty());  // zero sigma scale
  opt.corners = {CornerSpec{"x", std::numeric_limits<float>::quiet_NaN(),
                            1.0f}};
  EXPECT_FALSE(opt.validate().empty());  // NaN delay scale
  opt.corners = three_corners();
  EXPECT_TRUE(opt.validate().empty());
}

/// annotate() rejects out-of-range target corners.
TEST(McmmApi, AnnotateRejectsUnknownCorner) {
  const Fixture f(7);
  core::Engine engine = f.make_engine(three_corners());
  engine.run_forward();
  timing::ArcDelta d;
  d.arc = 0;
  d.mu = {1.0, 1.0};
  d.sigma = {0.0, 0.0};
  const std::vector<timing::ArcDelta> deltas{d};
  EXPECT_THROW(engine.annotate(deltas, 3), util::CheckError);
  EXPECT_THROW(engine.annotate(deltas, -2), util::CheckError);
}

// ---- analysis corner rules --------------------------------------------------

TEST(McmmLint, CheckCornerSetupFlagsBadScales) {
  using analysis::CornerSetup;
  const std::vector<CornerSetup> bad = {
      {"ok", 1.0, 1.0},
      {"nan", std::numeric_limits<double>::quiet_NaN(), 1.0},
      {"neg", 1.0, -0.5},
      {"zero", 0.0, 1.0},
  };
  const analysis::LintReport r = analysis::check_corner_setup(bad);
  EXPECT_TRUE(r.has_errors());
  EXPECT_EQ(r.count_rule("corner-scale"), 3u);
  EXPECT_EQ(r.count_rule("corner-name"), 0u);
}

TEST(McmmLint, CheckCornerSetupFlagsNameProblems) {
  using analysis::CornerSetup;
  const std::vector<CornerSetup> bad = {
      {"a", 1.0, 1.0}, {"", 1.0, 1.0}, {"a", 1.1, 1.0}};
  const analysis::LintReport r = analysis::check_corner_setup(bad);
  EXPECT_EQ(r.count_rule("corner-name"), 2u);  // one empty, one duplicate
  EXPECT_EQ(r.count_rule("corner-scale"), 0u);
}

TEST(McmmLint, CheckCornerSetupFlagsCountMismatch) {
  using analysis::CornerSetup;
  const std::vector<CornerSetup> two = {{"a", 1.0, 1.0}, {"b", 1.1, 1.0}};
  EXPECT_FALSE(analysis::check_corner_setup(two, 2).has_errors());
  EXPECT_FALSE(analysis::check_corner_setup(two, 0).has_errors());
  const analysis::LintReport r = analysis::check_corner_setup(two, 3);
  EXPECT_TRUE(r.has_errors());
  EXPECT_EQ(r.count_rule("corner-count"), 1u);
}

TEST(McmmLint, CheckCornerReference) {
  EXPECT_FALSE(analysis::check_corner_reference(-1, 3).has_errors());
  EXPECT_FALSE(analysis::check_corner_reference(0, 3).has_errors());
  EXPECT_FALSE(analysis::check_corner_reference(2, 3).has_errors());
  EXPECT_TRUE(analysis::check_corner_reference(3, 3).has_errors());
  EXPECT_TRUE(analysis::check_corner_reference(-2, 3).has_errors());
  EXPECT_EQ(
      analysis::check_corner_reference(5, 3).count_rule("corner-reference"),
      1u);
}

}  // namespace
}  // namespace insta
