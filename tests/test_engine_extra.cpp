#include <gtest/gtest.h>

#include <cmath>
#include <set>

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

struct Fixture {
  gen::GeneratedDesign gd;
  std::unique_ptr<timing::TimingGraph> graph;
  std::unique_ptr<timing::DelayCalculator> calc;
  timing::ArcDelays delays;
  std::unique_ptr<ref::GoldenSta> sta;

  explicit Fixture(std::uint64_t seed) {
    gd = gen::build_logic_block(gen::tiny_spec(seed));
    graph = std::make_unique<timing::TimingGraph>(*gd.design,
                                                  gd.constraints.clock_root);
    calc = std::make_unique<timing::DelayCalculator>(*gd.design, *graph);
    calc->compute_all(delays);
    gen::tune_clock_period(*graph, gd.constraints, delays, 0.1);
    sta = std::make_unique<ref::GoldenSta>(*graph, gd.constraints, delays);
    sta->update_full();
  }
};

class EngineExtra : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(EngineExtra, AnnotateReadRoundTrip) {
  Fixture f(GetParam());
  core::Engine engine(*f.sta, {});
  // Data arc round trip.
  timing::ArcId data_arc = timing::kNullArc;
  timing::ArcId launch_arc = timing::kNullArc;
  for (std::size_t a = 0; a < f.graph->num_arcs(); ++a) {
    const auto& rec = f.graph->arc(static_cast<timing::ArcId>(a));
    if (rec.kind == timing::ArcKind::kLaunch && launch_arc == timing::kNullArc) {
      launch_arc = static_cast<timing::ArcId>(a);
    }
    if (rec.kind == timing::ArcKind::kCell && data_arc == timing::kNullArc &&
        !f.graph->is_clock_cell(rec.cell)) {
      data_arc = static_cast<timing::ArcId>(a);
    }
  }
  ASSERT_NE(data_arc, timing::kNullArc);
  ASSERT_NE(launch_arc, timing::kNullArc);

  for (const timing::ArcId arc : {data_arc, launch_arc}) {
    timing::ArcDelta d;
    d.arc = arc;
    d.mu = {123.0, 77.0};
    d.sigma = {4.0, 2.5};
    engine.annotate({&d, 1});
    const timing::ArcDelta back = engine.read_annotation(arc);
    for (const int rf : {0, 1}) {
      EXPECT_NEAR(back.mu[static_cast<std::size_t>(rf)],
                  d.mu[static_cast<std::size_t>(rf)], 1e-3)
          << "arc " << arc;
      EXPECT_NEAR(back.sigma[static_cast<std::size_t>(rf)],
                  d.sigma[static_cast<std::size_t>(rf)], 1e-3);
    }
  }
}

TEST_P(EngineExtra, LaunchAnnotationShiftsDownstreamArrivals) {
  Fixture f(GetParam());
  core::Engine engine(*f.sta, {});
  engine.run_forward();
  const auto& sp = f.graph->startpoints()[0].clocked
                       ? f.graph->startpoints()[0]
                       : f.graph->startpoints().back();
  ASSERT_TRUE(sp.clocked);
  const float before = engine.worst_arrival(sp.pin);

  const auto [first, last] = f.graph->cell_arcs(sp.cell);
  ASSERT_EQ(last - first, 1);
  timing::ArcDelta d = engine.read_annotation(first);
  d.mu[0] += 50.0;
  d.mu[1] += 50.0;
  engine.annotate({&d, 1});
  engine.run_forward();
  EXPECT_NEAR(engine.worst_arrival(sp.pin), before + 50.0f, 0.01f);
}

TEST_P(EngineExtra, ArrivalListsAreSortedWithUniqueStartpoints) {
  Fixture f(GetParam());
  core::EngineOptions opt;
  opt.top_k = 8;
  core::Engine engine(*f.sta, opt);
  engine.run_forward();
  for (std::size_t p = 0; p < f.gd.design->num_pins(); ++p) {
    for (const auto rf : netlist::kBothTransitions) {
      const auto entries = engine.arrivals(static_cast<netlist::PinId>(p), rf);
      std::set<std::int32_t> sps;
      for (std::size_t k = 0; k < entries.size(); ++k) {
        EXPECT_TRUE(sps.insert(entries[k].sp).second)
            << "duplicate startpoint at pin " << p;
        if (k > 0) {
          EXPECT_LE(entries[k].arr, entries[k - 1].arr);
        }
        EXPECT_NEAR(entries[k].arr, entries[k].mu + 3.0f * entries[k].sig,
                    0.01f);
      }
    }
  }
}

TEST_P(EngineExtra, ParallelAndSerialForwardAgree) {
  Fixture f(GetParam());
  core::Engine a(*f.sta);
  core::Engine b = core::EngineTestPeer::serial(*f.sta);
  a.run_forward();
  b.run_forward();
  for (std::size_t e = 0; e < f.graph->endpoints().size(); ++e) {
    const float sa = a.endpoint_slack(static_cast<timing::EndpointId>(e));
    const float sb = b.endpoint_slack(static_cast<timing::EndpointId>(e));
    if (!std::isfinite(sa)) {
      EXPECT_FALSE(std::isfinite(sb));
    } else {
      EXPECT_EQ(sa, sb);
    }
  }
  a.run_backward(core::GradientMetric::kTns);
  b.run_backward(core::GradientMetric::kTns);
  for (std::size_t arc = 0; arc < f.graph->num_arcs(); ++arc) {
    EXPECT_EQ(a.arc_gradient(static_cast<timing::ArcId>(arc)),
              b.arc_gradient(static_cast<timing::ArcId>(arc)));
  }
}

/// Larger K monotonically refines accuracy against the golden reference:
/// the worst-case slack mismatch is non-increasing in K.
TEST_P(EngineExtra, TopKMonotonicallyRefinesAccuracy) {
  Fixture f(GetParam());
  double prev_worst = std::numeric_limits<double>::infinity();
  for (const int k : {1, 2, 4, 64}) {
    core::EngineOptions opt;
    opt.top_k = k;
    core::Engine engine(*f.sta, opt);
    engine.run_forward();
    double worst = 0.0;
    for (std::size_t e = 0; e < f.graph->endpoints().size(); ++e) {
      const double g = f.sta->endpoint_slack(static_cast<timing::EndpointId>(e));
      const float m = engine.endpoint_slack(static_cast<timing::EndpointId>(e));
      if (!std::isfinite(g) || !std::isfinite(m)) continue;
      worst = std::max(worst, std::abs(g - static_cast<double>(m)));
    }
    EXPECT_LE(worst, prev_worst + 0.01) << "K=" << k;
    prev_worst = worst;
  }
  // And K large enough is exact to float precision.
  EXPECT_LT(prev_worst, 0.05);
}

TEST_P(EngineExtra, MemoryScalesWithK) {
  Fixture f(GetParam());
  core::EngineOptions small;
  small.top_k = 2;
  core::EngineOptions big;
  big.top_k = 64;
  core::Engine a(*f.sta, small);
  core::Engine b(*f.sta, big);
  EXPECT_GT(a.memory_bytes(), 0u);
  EXPECT_GT(b.memory_bytes(), 4 * a.memory_bytes());
}

TEST_P(EngineExtra, RejectsClockArcAnnotation) {
  Fixture f(GetParam());
  core::Engine engine(*f.sta, {});
  // Find a clock-network net arc.
  timing::ArcId clock_arc = timing::kNullArc;
  for (std::size_t a = 0; a < f.graph->num_arcs(); ++a) {
    const auto& rec = f.graph->arc(static_cast<timing::ArcId>(a));
    if (rec.kind == timing::ArcKind::kNet &&
        f.graph->is_clock_network(rec.to)) {
      clock_arc = static_cast<timing::ArcId>(a);
      break;
    }
  }
  ASSERT_NE(clock_arc, timing::kNullArc);
  timing::ArcDelta d;
  d.arc = clock_arc;
  EXPECT_THROW(engine.annotate({&d, 1}), util::CheckError);
}

INSTANTIATE_TEST_SUITE_P(Seeds, EngineExtra,
                         ::testing::Values(91u, 92u, 93u, 94u));

}  // namespace
}  // namespace insta
