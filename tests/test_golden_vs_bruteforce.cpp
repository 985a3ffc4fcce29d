#include <gtest/gtest.h>

#include <cmath>
#include <limits>

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

  explicit Fixture(std::uint64_t seed, double violate_frac = 0.1) {
    gd = gen::build_logic_block(gen::tiny_spec(seed));
    graph = std::make_unique<timing::TimingGraph>(*gd.design,
                                                  gd.constraints.clock_root);
    calc = std::make_unique<timing::DelayCalculator>(*gd.design, *graph);
    calc->compute_all(delays);
    gen::tune_clock_period(*graph, gd.constraints, delays, violate_frac);
  }
};

void expect_matches_brute_force(std::uint64_t seed,
                                const ref::GoldenOptions& options) {
  Fixture f(seed);
  ref::GoldenSta sta(*f.graph, f.gd.constraints, f.delays, options);
  sta.update_full();
  const auto brute =
      ref::brute_force_endpoint_slacks(*f.graph, f.gd.constraints, f.delays);
  ASSERT_EQ(brute.size(), sta.endpoint_slacks().size());
  for (std::size_t e = 0; e < brute.size(); ++e) {
    if (!std::isfinite(brute[e])) {
      EXPECT_FALSE(std::isfinite(sta.endpoint_slack(
          static_cast<timing::EndpointId>(e))))
          << "endpoint " << e;
      continue;
    }
    EXPECT_NEAR(brute[e], sta.endpoint_slack(static_cast<timing::EndpointId>(e)),
                1e-7)
        << "endpoint " << e;
  }
}

/// Property: the golden engine's endpoint slacks equal exhaustive path
/// enumeration with exact CPPR, on every random tiny design — with its
/// default (derived) pruning window, and unpruned, the reference the
/// window tests compare against.
class GoldenVsBruteForce : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(GoldenVsBruteForce, EndpointSlacksMatch) {
  expect_matches_brute_force(GetParam(), ref::GoldenOptions{});
}

TEST_P(GoldenVsBruteForce, UnprunedEndpointSlacksMatch) {
  ref::GoldenOptions unpruned;
  unpruned.prune_window = std::numeric_limits<double>::infinity();
  expect_matches_brute_force(GetParam(), unpruned);
}

TEST_P(GoldenVsBruteForce, SomeViolationsExist) {
  Fixture f(GetParam());
  ref::GoldenSta sta(*f.graph, f.gd.constraints, f.delays);
  sta.update_full();
  EXPECT_GT(sta.num_violations(), 0);
  EXPECT_LT(sta.tns(), 0.0);
  EXPECT_LE(sta.wns(), 0.0);
}

INSTANTIATE_TEST_SUITE_P(Seeds, GoldenVsBruteForce,
                         ::testing::Values(1u, 2u, 3u, 4u, 5u, 6u, 7u, 8u, 9u,
                                           10u));

}  // namespace
}  // namespace insta
