#include <gtest/gtest.h>

#include <cmath>
#include <limits>

#include "core/engine.hpp"
#include "gen/logic_block.hpp"
#include "gen/presets.hpp"
#include "gen/tune.hpp"
#include "ref/brute_force.hpp"
#include "ref/golden_sta.hpp"
#include "timing/delay_calc.hpp"

namespace insta {
namespace {

struct Fixture {
  gen::GeneratedDesign gd;
  std::unique_ptr<timing::TimingGraph> graph;
  std::unique_ptr<timing::DelayCalculator> calc;
  timing::ArcDelays delays;
  std::unique_ptr<ref::GoldenSta> sta;

  explicit Fixture(std::uint64_t seed, ref::GoldenOptions opt = {}) {
    gd = gen::build_logic_block(gen::tiny_spec(seed));
    graph = std::make_unique<timing::TimingGraph>(*gd.design,
                                                  gd.constraints.clock_root);
    calc = std::make_unique<timing::DelayCalculator>(*gd.design, *graph);
    calc->compute_all(delays);
    gen::tune_clock_period(*graph, gd.constraints, delays, 0.1);
    opt.enable_hold = true;
    sta = std::make_unique<ref::GoldenSta>(*graph, gd.constraints, delays, opt);
    sta->update_full();
  }
};

void expect_hold_matches_brute_force(const Fixture& f) {
  const auto brute =
      ref::brute_force_hold_slacks(*f.graph, f.gd.constraints, f.delays);
  ASSERT_EQ(brute.size(), f.sta->hold_slacks().size());
  for (std::size_t e = 0; e < brute.size(); ++e) {
    const double mine = f.sta->hold_slack(static_cast<timing::EndpointId>(e));
    if (!std::isfinite(brute[e])) {
      EXPECT_FALSE(std::isfinite(mine)) << "endpoint " << e;
      continue;
    }
    EXPECT_NEAR(brute[e], mine, 1e-7) << "endpoint " << e;
  }
}

class Hold : public ::testing::TestWithParam<std::uint64_t> {};

/// Golden hold slacks equal exhaustive min-path enumeration with exact
/// CPPR credits, with the default (derived) pruning window and unpruned.
TEST_P(Hold, GoldenMatchesBruteForce) {
  expect_hold_matches_brute_force(Fixture(GetParam()));
}

TEST_P(Hold, UnprunedGoldenMatchesBruteForce) {
  ref::GoldenOptions unpruned;
  unpruned.prune_window = std::numeric_limits<double>::infinity();
  expect_hold_matches_brute_force(Fixture(GetParam(), unpruned));
}

/// INSTA with K >= #startpoints reproduces golden hold slacks to float
/// precision.
TEST_P(Hold, EngineMatchesGolden) {
  Fixture f(GetParam());
  core::EngineOptions opt;
  opt.top_k = static_cast<int>(f.graph->startpoints().size());
  opt.enable_hold = true;
  core::Engine engine(*f.sta, opt);
  engine.run_forward();
  for (std::size_t e = 0; e < f.graph->endpoints().size(); ++e) {
    const double g = f.sta->hold_slack(static_cast<timing::EndpointId>(e));
    const float m = engine.endpoint_hold_slack(static_cast<timing::EndpointId>(e));
    if (!std::isfinite(g)) {
      EXPECT_FALSE(std::isfinite(m)) << "endpoint " << e;
      continue;
    }
    EXPECT_NEAR(g, static_cast<double>(m), 2e-2) << "endpoint " << e;
  }
  EXPECT_NEAR(f.sta->ths(), engine.ths(), std::abs(f.sta->ths()) * 1e-4 + 0.1);
  EXPECT_NEAR(f.sta->whs(), engine.whs(), 2e-2);
}

/// Early arrivals never exceed late arrivals (per pin, per transition):
/// the min over paths at the -3sigma corner is at most the max at +3sigma.
TEST_P(Hold, EarlyNeverExceedsLate) {
  Fixture f(GetParam());
  for (const netlist::PinId p : f.graph->level_order()) {
    for (const auto rf : netlist::kBothTransitions) {
      const auto late = f.sta->arrivals(p, rf);
      const auto early = f.sta->early_arrivals(p, rf);
      if (late.empty() || early.empty()) {
        EXPECT_EQ(late.empty(), early.empty());
        continue;
      }
      EXPECT_LE(early.front().corner, late.front().corner) << "pin " << p;
    }
  }
}

/// Hold slacks are period-independent: changing the clock period moves
/// setup slacks one-for-one but leaves hold slacks untouched.
TEST_P(Hold, HoldIsPeriodIndependent) {
  Fixture f(GetParam());
  timing::Constraints faster = f.gd.constraints;
  faster.clock_period *= 0.5;
  ref::GoldenOptions opt;
  opt.enable_hold = true;
  ref::GoldenSta sta2(*f.graph, faster, f.delays, opt);
  sta2.update_full();
  for (std::size_t e = 0; e < f.graph->endpoints().size(); ++e) {
    const double a = f.sta->hold_slack(static_cast<timing::EndpointId>(e));
    const double b = sta2.hold_slack(static_cast<timing::EndpointId>(e));
    if (!std::isfinite(a)) continue;
    EXPECT_DOUBLE_EQ(a, b) << "endpoint " << e;
  }
  EXPECT_LT(sta2.wns(), f.sta->wns());
}

/// Incremental updates keep hold state consistent with a full update.
TEST_P(Hold, IncrementalKeepsHoldConsistent) {
  Fixture f(GetParam());
  util::Rng rng(GetParam() * 13 + 5);
  for (int step = 0; step < 4; ++step) {
    std::vector<netlist::CellId> candidates;
    for (std::size_t c = 0; c < f.gd.design->num_cells(); ++c) {
      const auto id = static_cast<netlist::CellId>(c);
      const auto& lc = f.gd.design->libcell_of(id);
      if (netlist::is_sequential(lc.func) || !netlist::has_output(lc.func) ||
          netlist::num_data_inputs(lc.func) == 0 ||
          f.graph->is_clock_cell(id)) {
        continue;
      }
      candidates.push_back(id);
    }
    const auto cell = candidates[static_cast<std::size_t>(rng.uniform_int(
        0, static_cast<std::int64_t>(candidates.size()) - 1))];
    const auto family =
        f.gd.design->library().family(f.gd.design->libcell_of(cell).func);
    netlist::LibCellId nl = f.gd.design->cell(cell).libcell;
    while (nl == f.gd.design->cell(cell).libcell) {
      nl = family[static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<std::int64_t>(family.size()) - 1))];
    }
    f.gd.design->resize_cell(cell, nl);
    const auto changed = f.calc->update_for_resize(cell, f.sta->mutable_delays());
    f.sta->update_incremental(changed);
  }
  ref::GoldenOptions opt;
  opt.enable_hold = true;
  ref::GoldenSta fresh(*f.graph, f.gd.constraints, f.delays, opt);
  fresh.update_full();
  for (std::size_t e = 0; e < f.graph->endpoints().size(); ++e) {
    const double a = f.sta->hold_slack(static_cast<timing::EndpointId>(e));
    const double b = fresh.hold_slack(static_cast<timing::EndpointId>(e));
    if (!std::isfinite(b)) {
      EXPECT_FALSE(std::isfinite(a));
    } else {
      EXPECT_DOUBLE_EQ(a, b) << "endpoint " << e;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, Hold, ::testing::Values(121u, 122u, 123u,
                                                        124u));

}  // namespace
}  // namespace insta
