#include <gtest/gtest.h>

#include <cmath>

#include "core/engine.hpp"
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
    gen::tune_clock_period(*graph, gd.constraints, delays, 0.15);
    sta = std::make_unique<ref::GoldenSta>(*graph, gd.constraints, delays);
    sta->update_full();
  }
};

/// Evaluates TNS after shifting one arc's delay mean by `dmu`.
double tns_with_shift(core::Engine& engine, const timing::ArcDelays& delays,
                      timing::ArcId arc, double dmu) {
  timing::ArcDelta d;
  d.arc = arc;
  for (const int rf : {0, 1}) {
    d.mu[static_cast<std::size_t>(rf)] =
        delays.mu[rf][static_cast<std::size_t>(arc)] + dmu;
    d.sigma[static_cast<std::size_t>(rf)] =
        delays.sigma[rf][static_cast<std::size_t>(arc)];
  }
  engine.annotate({&d, 1});
  engine.run_forward();
  const double tns = engine.tns();
  // Restore.
  for (const int rf : {0, 1}) {
    d.mu[static_cast<std::size_t>(rf)] =
        delays.mu[rf][static_cast<std::size_t>(arc)];
  }
  engine.annotate({&d, 1});
  return tns;
}

class Gradients : public ::testing::TestWithParam<std::uint64_t> {};

/// The fanin net arc of every violating endpoint carries a TNS gradient of
/// exactly its seed weight: 1.0 for TNS mode (single candidate -> softmax
/// weight 1), summing to the violation count.
TEST_P(Gradients, EndpointSeedsAreConserved) {
  Fixture f(GetParam());
  core::Engine engine(*f.sta, {});
  engine.run_forward();
  engine.run_backward(core::GradientMetric::kTns);
  double total = 0.0;
  int checked = 0;
  for (std::size_t e = 0; e < f.graph->endpoints().size(); ++e) {
    const float s = engine.endpoint_slack(static_cast<timing::EndpointId>(e));
    if (!std::isfinite(s)) continue;
    float g = 0.0f;
    for (const timing::ArcId a : f.graph->fanin(f.graph->endpoints()[e].pin)) {
      g += engine.arc_gradient(a);
    }
    if (s < 0.0f) {
      EXPECT_NEAR(g, 1.0f, 1e-4f) << "violating endpoint " << e;
      ++checked;
    } else {
      EXPECT_NEAR(g, 0.0f, 1e-5f) << "passing endpoint " << e;
    }
    total += static_cast<double>(g);
  }
  EXPECT_GT(checked, 0);
  EXPECT_NEAR(total, static_cast<double>(engine.num_violations()), 1e-3);
}

/// WNS-mode seeds form a soft-min distribution: endpoint fanin gradients sum
/// to ~1 over the violating endpoints, concentrated on the worst one.
TEST_P(Gradients, WnsSeedsSumToOne) {
  Fixture f(GetParam());
  core::Engine engine(*f.sta);
  engine.run_forward();
  engine.run_backward(core::GradientMetric::kWns);
  double total = 0.0;
  double worst_seed = 0.0;
  float wns = 0.0f;
  std::size_t worst_ep = 0;
  for (std::size_t e = 0; e < f.graph->endpoints().size(); ++e) {
    const float s = engine.endpoint_slack(static_cast<timing::EndpointId>(e));
    if (std::isfinite(s) && s < wns) {
      wns = s;
      worst_ep = e;
    }
  }
  for (std::size_t e = 0; e < f.graph->endpoints().size(); ++e) {
    float g = 0.0f;
    for (const timing::ArcId a : f.graph->fanin(f.graph->endpoints()[e].pin)) {
      g += engine.arc_gradient(a);
    }
    total += static_cast<double>(g);
    if (e == worst_ep) worst_seed = static_cast<double>(g);
  }
  EXPECT_NEAR(total, 1.0, 1e-3);
  EXPECT_GT(worst_seed, 1.0 / static_cast<double>(engine.num_violations() + 1));
}

/// Central finite differences of the (hard-max) forward TNS match the
/// backward gradients on average when tau is small. Individual arcs may sit
/// on kinks of the piecewise-linear TNS, so the property is aggregate.
TEST_P(Gradients, FiniteDifferenceAgreement) {
  Fixture f(GetParam());
  core::EngineOptions opt;
  opt.tau = 0.05f;  // near-hard softmax
  core::Engine engine(*f.sta, opt);
  engine.run_forward();
  engine.run_backward(core::GradientMetric::kTns);

  // Test the highest-gradient arcs (the ones optimization would act on).
  std::vector<std::pair<float, timing::ArcId>> ranked;
  for (std::size_t a = 0; a < f.graph->num_arcs(); ++a) {
    const float g = engine.arc_gradient(static_cast<timing::ArcId>(a));
    if (g > 0.25f) ranked.emplace_back(g, static_cast<timing::ArcId>(a));
  }
  ASSERT_FALSE(ranked.empty());
  std::sort(ranked.begin(), ranked.end(),
            [](const auto& x, const auto& y) { return x.first > y.first; });
  if (ranked.size() > 12) ranked.resize(12);

  const double h = 0.5;  // ps
  double rel_err_sum = 0.0;
  for (const auto& [g, arc] : ranked) {
    const double up = tns_with_shift(engine, f.delays, arc, h);
    const double dn = tns_with_shift(engine, f.delays, arc, -h);
    const double fd = -(up - dn) / (2.0 * h);  // d(-TNS)/dmu
    rel_err_sum += std::abs(fd - static_cast<double>(g)) /
                   std::max(1.0, std::abs(fd));
  }
  EXPECT_LT(rel_err_sum / static_cast<double>(ranked.size()), 0.25);
}

/// All timing gradients are non-negative (criticality semantics) and zero
/// when nothing violates.
TEST_P(Gradients, NonNegativeAndZeroWhenClean) {
  Fixture f(GetParam());
  core::Engine engine(*f.sta, {});
  engine.run_forward();
  engine.run_backward(core::GradientMetric::kTns);
  for (std::size_t a = 0; a < f.graph->num_arcs(); ++a) {
    EXPECT_GE(engine.arc_gradient(static_cast<timing::ArcId>(a)), 0.0f);
  }

  // Relax the clock so nothing violates; gradients must vanish.
  timing::Constraints relaxed = f.gd.constraints;
  relaxed.clock_period *= 10.0;
  ref::GoldenSta sta2(*f.graph, relaxed, f.delays);
  sta2.update_full();
  ASSERT_EQ(sta2.num_violations(), 0);
  core::Engine clean(sta2, {});
  clean.run_forward();
  clean.run_backward(core::GradientMetric::kTns);
  for (std::size_t a = 0; a < f.graph->num_arcs(); ++a) {
    EXPECT_EQ(clean.arc_gradient(static_cast<timing::ArcId>(a)), 0.0f);
  }
}

/// Larger tau spreads gradient over sub-critical paths: the number of arcs
/// with non-trivial gradient grows with tau (Eq. 4's motivation).
TEST_P(Gradients, LseTemperatureSpreadsGradient) {
  Fixture f(GetParam());
  auto count_active = [&](float tau) {
    core::EngineOptions opt;
    opt.tau = tau;
    core::Engine engine(*f.sta, opt);
    engine.run_forward();
    engine.run_backward(core::GradientMetric::kTns);
    int n = 0;
    for (std::size_t a = 0; a < f.graph->num_arcs(); ++a) {
      if (engine.arc_gradient(static_cast<timing::ArcId>(a)) > 1e-3f) ++n;
    }
    return n;
  };
  const int sharp = count_active(0.01f);
  const int smooth = count_active(50.0f);
  EXPECT_GE(smooth, sharp);
  EXPECT_GT(smooth, 0);
}

INSTANTIATE_TEST_SUITE_P(Seeds, Gradients,
                         ::testing::Values(31u, 32u, 33u, 34u, 35u));

}  // namespace
}  // namespace insta
