#include <gtest/gtest.h>

#include <cmath>

#include "core/engine.hpp"
#include "engine_test_peer.hpp"
#include "gen/changelist.hpp"
#include "gen/logic_block.hpp"
#include "gen/presets.hpp"
#include "gen/tune.hpp"
#include "ref/golden_sta.hpp"
#include "timing/delay_calc.hpp"

namespace insta {
namespace {

class IncrementalForward : public ::testing::TestWithParam<std::uint64_t> {
 protected:
  void SetUp() override {
    gd_ = gen::build_logic_block(gen::tiny_spec(GetParam()));
    graph_ = std::make_unique<timing::TimingGraph>(*gd_.design,
                                                   gd_.constraints.clock_root);
    calc_ = std::make_unique<timing::DelayCalculator>(*gd_.design, *graph_);
    calc_->compute_all(delays_);
    gen::tune_clock_period(*graph_, gd_.constraints, delays_, 0.1);
    sta_ = std::make_unique<ref::GoldenSta>(*graph_, gd_.constraints, delays_);
    sta_->update_full();
  }
  gen::GeneratedDesign gd_;
  std::unique_ptr<timing::TimingGraph> graph_;
  std::unique_ptr<timing::DelayCalculator> calc_;
  timing::ArcDelays delays_;
  std::unique_ptr<ref::GoldenSta> sta_;
};

/// After any sequence of annotations, run_forward_incremental() must leave
/// the engine in exactly the state run_forward() would.
TEST_P(IncrementalForward, MatchesFullForwardAfterAnnotations) {
  core::Engine inc(*sta_, {});
  core::Engine full(*sta_, {});
  inc.run_forward();
  full.run_forward();

  util::Rng rng(GetParam() * 3 + 1);
  const auto changes = gen::random_changelist(*gd_.design, *graph_, rng, 30);
  for (const auto& ch : changes) {
    const auto deltas = calc_->estimate_eco(ch.cell, ch.new_libcell);
    inc.annotate(deltas);
    full.annotate(deltas);
    inc.run_forward_incremental();
    full.run_forward();
    for (std::size_t e = 0; e < graph_->endpoints().size(); ++e) {
      const float a = inc.endpoint_slack(static_cast<timing::EndpointId>(e));
      const float b = full.endpoint_slack(static_cast<timing::EndpointId>(e));
      if (!std::isfinite(b)) {
        EXPECT_FALSE(std::isfinite(a));
      } else {
        EXPECT_EQ(a, b) << "endpoint " << e;
      }
    }
  }
}

/// With nothing annotated, the incremental pass re-processes no levels but
/// still produces valid (unchanged) slacks.
TEST_P(IncrementalForward, CleanIncrementalIsIdempotent) {
  core::Engine engine(*sta_, {});
  engine.run_forward();
  const std::vector<float> before(engine.endpoint_slacks().begin(),
                                  engine.endpoint_slacks().end());
  engine.run_forward_incremental();  // nothing dirty
  for (std::size_t e = 0; e < before.size(); ++e) {
    const float after = engine.endpoint_slack(static_cast<timing::EndpointId>(e));
    if (std::isfinite(before[e])) {
      EXPECT_EQ(before[e], after);
    } else {
      EXPECT_FALSE(std::isfinite(after));
    }
  }
}

/// The first forward pass after construction must be full even if called
/// through the incremental entry point (everything starts dirty).
TEST_P(IncrementalForward, FirstPassIsFull) {
  core::Engine a(*sta_, {});
  a.run_forward_incremental();
  core::Engine b(*sta_, {});
  b.run_forward();
  for (std::size_t e = 0; e < graph_->endpoints().size(); ++e) {
    const float sa = a.endpoint_slack(static_cast<timing::EndpointId>(e));
    const float sb = b.endpoint_slack(static_cast<timing::EndpointId>(e));
    if (std::isfinite(sb)) {
      EXPECT_EQ(sa, sb);
    } else {
      EXPECT_FALSE(std::isfinite(sa));
    }
  }
}

/// The sparse pass must maintain dirty bookkeeping exactly: clean after any
/// pass, dirty after annotate, and a clean incremental pass is a true no-op
/// (empty frontier, no endpoints re-evaluated).
TEST_P(IncrementalForward, SparseBookkeepingAndStats) {
  core::Engine engine(*sta_, {});
  EXPECT_FALSE(engine.timing_clean());  // everything starts dirty
  engine.run_forward();
  EXPECT_TRUE(engine.timing_clean());
  EXPECT_FALSE(engine.last_pass_stats().sparse);

  util::Rng rng(GetParam() * 7 + 5);
  const auto changes = gen::random_changelist(*gd_.design, *graph_, rng, 1);
  ASSERT_FALSE(changes.empty());
  const auto deltas =
      calc_->estimate_eco(changes[0].cell, changes[0].new_libcell);
  engine.annotate(deltas);
  EXPECT_FALSE(engine.timing_clean());

  engine.run_forward_incremental();
  EXPECT_TRUE(engine.timing_clean());
  const core::Engine::SparseStats st = engine.last_pass_stats();
  EXPECT_TRUE(st.sparse);
  EXPECT_GT(st.frontier_pins, 0u);
  EXPECT_GT(st.levels_touched, 0u);

  // A second incremental pass with nothing annotated touches nothing.
  engine.run_forward_incremental();
  EXPECT_TRUE(engine.last_pass_stats().sparse);
  EXPECT_EQ(engine.last_pass_stats().frontier_pins, 0u);
  EXPECT_EQ(engine.last_pass_stats().endpoints_evaluated, 0u);
}

/// Delta-maintained aggregates must track a fresh engine's scan-built ones
/// through a long randomized ECO sequence.
TEST_P(IncrementalForward, AggregatesTrackFullForward) {
  core::Engine inc(*sta_, {});
  core::Engine full(*sta_, {});
  inc.run_forward();
  full.run_forward();

  util::Rng rng(GetParam() * 11 + 3);
  const auto changes = gen::random_changelist(*gd_.design, *graph_, rng, 25);
  for (const auto& ch : changes) {
    const auto deltas = calc_->estimate_eco(ch.cell, ch.new_libcell);
    inc.annotate(deltas);
    full.annotate(deltas);
    inc.run_forward_incremental();
    full.run_forward();
    // Slacks are bit-identical, so WNS and the violation count are exact;
    // TNS is accumulated in a different order (delta vs scan), so it may
    // differ in the last double bits.
    EXPECT_EQ(inc.wns(), full.wns());
    EXPECT_EQ(inc.num_violations(), full.num_violations());
    EXPECT_NEAR(inc.tns(), full.tns(), 1e-6 * (1.0 + std::abs(full.tns())));
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, IncrementalForward,
                         ::testing::Values(131u, 132u, 133u));

/// Compares every Top-K store entry of two engines bit-for-bit.
void expect_identical_stores(const core::Engine& inc, const core::Engine& full,
                             const netlist::Design& design) {
  for (std::size_t p = 0; p < design.num_pins(); ++p) {
    for (const auto rf : {netlist::RiseFall::kRise, netlist::RiseFall::kFall}) {
      const auto a = inc.arrivals(static_cast<netlist::PinId>(p), rf);
      const auto b = full.arrivals(static_cast<netlist::PinId>(p), rf);
      ASSERT_EQ(a.size(), b.size()) << "pin " << p;
      for (std::size_t k = 0; k < a.size(); ++k) {
        ASSERT_EQ(a[k].arr, b[k].arr) << "pin " << p << " entry " << k;
        ASSERT_EQ(a[k].mu, b[k].mu) << "pin " << p << " entry " << k;
        ASSERT_EQ(a[k].sig, b[k].sig) << "pin " << p << " entry " << k;
        ASSERT_EQ(a[k].sp, b[k].sp) << "pin " << p << " entry " << k;
      }
    }
  }
}

/// Randomized ECO sequences on a two-domain clock design: sparse incremental
/// slacks and Top-K stores must stay bit-identical to a fresh full sweep
/// (CPPR credits cross clock-tree boundaries here).
TEST(IncrementalForwardMulticlock, MatchesFullForwardBitIdentical) {
  for (const std::uint64_t seed : {141u, 142u}) {
    gen::LogicBlockSpec spec = gen::tiny_spec(seed);
    spec.num_extra_clocks = 1;
    spec.extra_clock_ratio = 2.0;
    gen::GeneratedDesign gd = gen::build_logic_block(spec);
    timing::TimingGraph graph(*gd.design, gd.constraints.clock_roots());
    timing::DelayCalculator calc(*gd.design, graph);
    timing::ArcDelays delays;
    calc.compute_all(delays);
    gen::tune_clock_period(graph, gd.constraints, delays, 0.1);
    ref::GoldenSta sta(graph, gd.constraints, delays);
    sta.update_full();

    core::Engine inc(sta, {});
    core::Engine full(sta, {});
    inc.run_forward();
    full.run_forward();

    util::Rng rng(seed * 13 + 7);
    const auto changes = gen::random_changelist(*gd.design, graph, rng, 20);
    for (const auto& ch : changes) {
      const auto deltas = calc.estimate_eco(ch.cell, ch.new_libcell);
      inc.annotate(deltas);
      full.annotate(deltas);
      inc.run_forward_incremental();
      full.run_forward();
      ASSERT_TRUE(inc.timing_clean());
      for (std::size_t e = 0; e < graph.endpoints().size(); ++e) {
        const float a = inc.endpoint_slack(static_cast<timing::EndpointId>(e));
        const float b = full.endpoint_slack(static_cast<timing::EndpointId>(e));
        if (!std::isfinite(b)) {
          ASSERT_FALSE(std::isfinite(a)) << "endpoint " << e;
        } else {
          ASSERT_EQ(a, b) << "endpoint " << e;
        }
      }
      expect_identical_stores(inc, full, *gd.design);
    }
  }
}

/// Randomized ECO sequences with hold analysis enabled: both the late
/// (setup) and negated-early (hold) stores ride the same frontier, and both
/// slack arrays must stay bit-identical. The engines run every loop on the
/// pool, so the sparse pass exercises the thread-pool path even on a tiny
/// design.
TEST(IncrementalForwardHold, MatchesFullForwardBitIdentical) {
  for (const std::uint64_t seed : {151u, 152u}) {
    gen::GeneratedDesign gd = gen::build_logic_block(gen::tiny_spec(seed));
    timing::TimingGraph graph(*gd.design, gd.constraints.clock_root);
    timing::DelayCalculator calc(*gd.design, graph);
    timing::ArcDelays delays;
    calc.compute_all(delays);
    gen::tune_clock_period(graph, gd.constraints, delays, 0.1);
    ref::GoldenOptions gopt;
    gopt.enable_hold = true;
    ref::GoldenSta sta(graph, gd.constraints, delays, gopt);
    sta.update_full();

    core::EngineOptions eopt;
    eopt.enable_hold = true;
    core::Engine inc = core::EngineTestPeer::pooled(sta, eopt);
    core::Engine full = core::EngineTestPeer::pooled(sta, eopt);
    inc.run_forward();
    full.run_forward();

    util::Rng rng(seed * 17 + 9);
    const auto changes = gen::random_changelist(*gd.design, graph, rng, 20);
    for (const auto& ch : changes) {
      const auto deltas = calc.estimate_eco(ch.cell, ch.new_libcell);
      inc.annotate(deltas);
      full.annotate(deltas);
      inc.run_forward_incremental();
      full.run_forward();
      for (std::size_t e = 0; e < graph.endpoints().size(); ++e) {
        const auto ep = static_cast<timing::EndpointId>(e);
        const float a = inc.endpoint_slack(ep);
        const float b = full.endpoint_slack(ep);
        if (!std::isfinite(b)) {
          ASSERT_FALSE(std::isfinite(a)) << "endpoint " << e;
        } else {
          ASSERT_EQ(a, b) << "endpoint " << e;
        }
        const float ha = inc.endpoint_hold_slack(ep);
        const float hb = full.endpoint_hold_slack(ep);
        if (!std::isfinite(hb)) {
          ASSERT_FALSE(std::isfinite(ha)) << "hold endpoint " << e;
        } else {
          ASSERT_EQ(ha, hb) << "hold endpoint " << e;
        }
      }
      EXPECT_EQ(inc.whs(), full.whs());
      EXPECT_EQ(inc.num_hold_violations(), full.num_hold_violations());
      EXPECT_NEAR(inc.ths(), full.ths(),
                  1e-6 * (1.0 + std::abs(full.ths())));
    }
  }
}

}  // namespace
}  // namespace insta
