#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <span>
#include <vector>

#include "analysis/diagnostics.hpp"
#include "core/engine.hpp"
#include "core/scenario_batch.hpp"
#include "engine_test_peer.hpp"
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

using core::Mode;
using core::ScenarioBatch;
using core::ScenarioBatchOptions;
using core::ScenarioResult;
using core::SlackSummary;
using timing::ArcDelta;

/// Sequential ground truth of one scenario: a Transaction applies the
/// deltas to the parent, the sparse pass settles, the summaries are read,
/// and rollback() restores the parent to its exact pre-edit bytes.
struct SequentialRef {
  SlackSummary setup;
  SlackSummary hold;
  std::vector<float> slack;
  std::vector<float> hold_slack;
};

SequentialRef sequential_reference(core::Engine& engine,
                                   std::span<const ArcDelta> deltas) {
  auto tx = engine.begin_edit();
  tx.annotate(deltas);
  engine.run_forward_incremental();
  SequentialRef ref;
  ref.setup = engine.summary(Mode::kSetup, 0);
  ref.slack.assign(engine.endpoint_slacks().begin(),
                   engine.endpoint_slacks().end());
  if (engine.options().enable_hold) {
    ref.hold = engine.summary(Mode::kHold, 0);
    const std::size_t n = engine.graph().endpoints().size();
    ref.hold_slack.reserve(n);
    for (std::size_t e = 0; e < n; ++e) {
      ref.hold_slack.push_back(
          engine.endpoint_hold_slack(static_cast<timing::EndpointId>(e)));
    }
  }
  tx.rollback();
  return ref;
}

/// The full endpoint-slack vector a scenario implies: the parent baseline
/// with the scenario's recorded endpoint changes overlaid.
std::vector<float> overlay_slacks(std::span<const float> base,
                                  const ScenarioResult& r, bool hold) {
  std::vector<float> s(base.begin(), base.end());
  for (const core::EndpointSlackChange& c : r.endpoint_changes) {
    s[static_cast<std::size_t>(c.ep)] = hold ? c.hold : c.setup;
  }
  return s;
}

std::vector<float> hold_slacks_of(const core::Engine& engine) {
  std::vector<float> s;
  const std::size_t n = engine.graph().endpoints().size();
  s.reserve(n);
  for (std::size_t e = 0; e < n; ++e) {
    s.push_back(engine.endpoint_hold_slack(static_cast<timing::EndpointId>(e)));
  }
  return s;
}

/// Evaluates `scen` through `batch` and checks every scenario bit-identical
/// to its Transaction-based sequential reference: summaries via
/// SlackSummary::operator== and, when collect_endpoints is on, the full
/// overlaid slack vectors entry by entry.
void expect_scenarios_match(core::Engine& engine, ScenarioBatch& batch,
                            const std::vector<std::vector<ArcDelta>>& scen) {
  const bool hold = engine.options().enable_hold;
  const std::vector<float> base_slack(engine.endpoint_slacks().begin(),
                                      engine.endpoint_slacks().end());
  const std::vector<float> base_hold =
      hold ? hold_slacks_of(engine) : std::vector<float>{};

  const std::vector<ScenarioResult> results = batch.evaluate(scen);
  ASSERT_EQ(results.size(), scen.size());
  for (std::size_t i = 0; i < scen.size(); ++i) {
    const SequentialRef ref = sequential_reference(engine, scen[i]);
    EXPECT_EQ(results[i].setup, ref.setup) << "scenario " << i;
    if (hold) {
      EXPECT_EQ(results[i].hold, ref.hold) << "scenario " << i;
    }
    if (!batch.options().collect_endpoints) continue;
    const std::vector<float> got = overlay_slacks(base_slack, results[i], false);
    for (std::size_t e = 0; e < got.size(); ++e) {
      if (!std::isfinite(ref.slack[e])) {
        ASSERT_FALSE(std::isfinite(got[e]))
            << "scenario " << i << " endpoint " << e;
      } else {
        ASSERT_EQ(got[e], ref.slack[e])
            << "scenario " << i << " endpoint " << e;
      }
    }
    if (!hold) continue;
    const std::vector<float> goth = overlay_slacks(base_hold, results[i], true);
    for (std::size_t e = 0; e < goth.size(); ++e) {
      if (!std::isfinite(ref.hold_slack[e])) {
        ASSERT_FALSE(std::isfinite(goth[e]))
            << "scenario " << i << " hold endpoint " << e;
      } else {
        ASSERT_EQ(goth[e], ref.hold_slack[e])
            << "scenario " << i << " hold endpoint " << e;
      }
    }
  }
}

/// expect_scenarios_match under both dispatch shapes: the whole set in one
/// call (one pool task per cell once B >= 4), then in calls of at most
/// three scenarios (cells on the engine's level-parallel kernels).
void expect_scenarios_match_both_shapes(
    core::Engine& engine, ScenarioBatch& batch,
    const std::vector<std::vector<ArcDelta>>& scen) {
  expect_scenarios_match(engine, batch, scen);
  for (std::size_t i = 0; i < scen.size(); i += 3) {
    const auto at = [&scen](std::size_t n) {
      return scen.begin() + static_cast<std::ptrdiff_t>(n);
    };
    const std::vector<std::vector<ArcDelta>> part(
        at(i), at(std::min(i + 3, scen.size())));
    expect_scenarios_match(engine, batch, part);
  }
}

class ScenarioBatchTest : public ::testing::TestWithParam<std::uint64_t> {
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

  /// B delta-sets, one per randomized resize; repeats changes when the
  /// changelist is shorter than B (duplicate scenarios are legal — each
  /// evaluates independently).
  std::vector<std::vector<ArcDelta>> make_scenarios(util::Rng& rng,
                                                    std::size_t n) {
    const auto changes = gen::random_changelist(
        *gd_.design, *graph_, rng, static_cast<int>(n));
    std::vector<std::vector<ArcDelta>> scen;
    scen.reserve(n);
    for (const auto& ch : changes) {
      scen.push_back(calc_->estimate_eco(ch.cell, ch.new_libcell));
    }
    for (std::size_t i = 0; scen.size() < n && !scen.empty(); ++i) {
      scen.push_back(scen[i % changes.size()]);
    }
    return scen;
  }

  /// A reference engine with hold analysis on, for multi-corner engines
  /// built with enable_hold.
  [[nodiscard]] std::unique_ptr<ref::GoldenSta> hold_reference() {
    ref::GoldenOptions gopt;
    gopt.enable_hold = true;
    auto sta = std::make_unique<ref::GoldenSta>(*graph_, gd_.constraints,
                                                delays_, gopt);
    sta->update_full();
    return sta;
  }

  /// `deltas` plus an edit of the first launch arc, which annotate() folds
  /// into a startpoint's initial arrival instead of an arc slot.
  [[nodiscard]] std::vector<ArcDelta> with_launch_edit(
      const core::Engine& engine, std::vector<ArcDelta> deltas) const {
    for (std::size_t a = 0; a < graph_->num_arcs(); ++a) {
      const auto arc = static_cast<timing::ArcId>(a);
      if (graph_->arc(arc).kind != timing::ArcKind::kLaunch) continue;
      ArcDelta d = engine.read_annotation(arc, 0);
      d.mu = {d.mu[0] + 7.0, d.mu[1] + 5.0};
      d.sigma = {d.sigma[0] + 1.0, d.sigma[1]};
      deltas.push_back(d);
      break;
    }
    return deltas;
  }

  gen::GeneratedDesign gd_;
  std::unique_ptr<timing::TimingGraph> graph_;
  std::unique_ptr<timing::DelayCalculator> calc_;
  timing::ArcDelays delays_;
  std::unique_ptr<ref::GoldenSta> sta_;
};

/// The tentpole guarantee: every scenario's summaries and endpoint slacks
/// are bit-identical to sequentially annotating the parent and running the
/// sparse pass, for B from 1 to 64: B = 1 runs the cells on the engine's
/// level-parallel kernels, B = 7 and 64 one pool task per cell.
TEST_P(ScenarioBatchTest, MatchesSequentialAcrossStrategiesAndBatchSizes) {
  core::Engine engine(*sta_, {});
  engine.run_forward();
  ScenarioBatchOptions opt;
  opt.collect_endpoints = true;
  ScenarioBatch batch(engine, opt);
  util::Rng rng(GetParam() * 19 + 11);
  for (const std::size_t b : {std::size_t{1}, std::size_t{7}, std::size_t{64}}) {
    const auto scen = make_scenarios(rng, b);
    ASSERT_FALSE(scen.empty());
    expect_scenarios_match(engine, batch, scen);
  }
}

/// Overlapping delta-sets: every scenario shares a common delta prefix (the
/// same arcs annotated with the same values) plus its own resize. The
/// overlays must stay fully independent — each scenario's result matches
/// its own sequential reference.
TEST_P(ScenarioBatchTest, OverlappingDeltaSetsStayIndependent) {
  core::Engine engine(*sta_, {});
  engine.run_forward();
  ScenarioBatchOptions opt;
  opt.collect_endpoints = true;
  ScenarioBatch batch(engine, opt);

  util::Rng rng(GetParam() * 23 + 5);
  const auto scen = make_scenarios(rng, 8);
  ASSERT_GE(scen.size(), 2u);
  std::vector<std::vector<ArcDelta>> overlapping;
  for (std::size_t i = 1; i < scen.size(); ++i) {
    std::vector<ArcDelta> s = scen[0];  // shared prefix
    s.insert(s.end(), scen[i].begin(), scen[i].end());
    overlapping.push_back(std::move(s));
  }
  expect_scenarios_match(engine, batch, overlapping);
}

/// evaluate() must never mutate the parent: summaries, slack arrays, and
/// every Top-K store entry read back bit-identical afterwards.
TEST_P(ScenarioBatchTest, ParentEngineUntouched) {
  core::Engine engine(*sta_, {});
  engine.run_forward();
  const SlackSummary before = engine.summary(Mode::kSetup, 0);
  const std::vector<float> slack_before(engine.endpoint_slacks().begin(),
                                        engine.endpoint_slacks().end());
  std::vector<std::vector<core::Engine::TopKEntry>> stores_before;
  for (std::size_t p = 0; p < gd_.design->num_pins(); ++p) {
    for (const auto rf : {netlist::RiseFall::kRise, netlist::RiseFall::kFall}) {
      stores_before.push_back(
          engine.arrivals(static_cast<netlist::PinId>(p), rf));
    }
  }

  ScenarioBatch batch(engine);
  util::Rng rng(GetParam() * 29 + 3);
  const auto results = batch.evaluate(make_scenarios(rng, 7));
  ASSERT_FALSE(results.empty());

  EXPECT_TRUE(engine.timing_clean());
  EXPECT_EQ(engine.summary(Mode::kSetup, 0), before);
  for (std::size_t e = 0; e < slack_before.size(); ++e) {
    const float after = engine.endpoint_slack(static_cast<timing::EndpointId>(e));
    if (std::isfinite(slack_before[e])) {
      ASSERT_EQ(slack_before[e], after) << "endpoint " << e;
    } else {
      ASSERT_FALSE(std::isfinite(after)) << "endpoint " << e;
    }
  }
  std::size_t idx = 0;
  for (std::size_t p = 0; p < gd_.design->num_pins(); ++p) {
    for (const auto rf : {netlist::RiseFall::kRise, netlist::RiseFall::kFall}) {
      const auto after = engine.arrivals(static_cast<netlist::PinId>(p), rf);
      const auto& ref = stores_before[idx++];
      ASSERT_EQ(after.size(), ref.size()) << "pin " << p;
      for (std::size_t k = 0; k < after.size(); ++k) {
        ASSERT_EQ(after[k].arr, ref[k].arr) << "pin " << p << " entry " << k;
        ASSERT_EQ(after[k].mu, ref[k].mu) << "pin " << p << " entry " << k;
        ASSERT_EQ(after[k].sig, ref[k].sig) << "pin " << p << " entry " << k;
        ASSERT_EQ(after[k].sp, ref[k].sp) << "pin " << p << " entry " << k;
      }
    }
  }
}

/// An empty delta-set is the baseline scenario: zero frontier, zero
/// overlay, and summaries equal to the parent's.
TEST_P(ScenarioBatchTest, EmptyDeltaSetIsBaseline) {
  core::Engine engine(*sta_, {});
  engine.run_forward();
  ScenarioBatchOptions opt;
  opt.collect_endpoints = true;
  ScenarioBatch batch(engine, opt);

  const auto results =
      batch.evaluate(std::vector<std::vector<ArcDelta>>{{}});
  ASSERT_EQ(results.size(), 1u);
  EXPECT_EQ(results[0].setup, engine.summary(Mode::kSetup, 0));
  EXPECT_EQ(results[0].frontier_pins, 0u);
  EXPECT_EQ(results[0].endpoints_evaluated, 0u);
  EXPECT_EQ(results[0].overlay_bytes, 0u);
  EXPECT_TRUE(results[0].endpoint_changes.empty());
}

/// Four corners with hold on: the multi-corner input of the accounting and
/// commit tests.
core::EngineOptions four_corners_with_hold() {
  core::EngineOptions opt;
  opt.enable_hold = true;
  opt.corners = {{"typ", 1.0f, 1.0f},
                 {"fast", 0.92f, 0.95f},
                 {"slow", 1.08f, 1.05f},
                 {"cold", 1.15f, 1.10f}};
  return opt;
}

/// A scenario's per-corner summaries and work counters equal those of an
/// engine that committed the same delta-set.
void expect_matches_committed(const ScenarioResult& r,
                              const core::Engine& committed) {
  const bool hold = committed.options().enable_hold;
  for (std::size_t c = 0; c < committed.num_corners(); ++c) {
    const auto corner = static_cast<core::CornerId>(c);
    EXPECT_EQ(r.setup_by_corner[c], committed.summary(Mode::kSetup, corner))
        << "corner " << c;
    if (hold) {
      EXPECT_EQ(r.hold_by_corner[c], committed.summary(Mode::kHold, corner))
          << "corner " << c;
    }
  }
  EXPECT_EQ(r.setup, committed.merged_summary(Mode::kSetup));
  if (hold) {
    EXPECT_EQ(r.hold, committed.merged_summary(Mode::kHold));
  }
  const core::Engine::SparseStats& st = committed.last_pass_stats();
  EXPECT_EQ(r.frontier_pins, st.frontier_pins);
  EXPECT_EQ(r.early_terminations, st.early_terminations);
  EXPECT_EQ(r.endpoints_evaluated, st.endpoints_evaluated);
}

/// A real resize scenario must report non-trivial work accounting: a
/// frontier, evaluated endpoints, and a non-zero copy-on-write footprint.
/// The same ECO applied sequentially walks the same frontier — at one
/// corner, and at four corners with hold on and a launch-arc edit.
TEST_P(ScenarioBatchTest, StatsAndOverlayAccounting) {
  const std::unique_ptr<ref::GoldenSta> hold_sta = hold_reference();
  util::Rng rng(GetParam() * 31 + 7);
  const auto scen = make_scenarios(rng, 1);
  ASSERT_EQ(scen.size(), 1u);
  for (const bool multi : {false, true}) {
    SCOPED_TRACE(multi ? "4 corners, hold, launch arc" : "1 corner");
    const ref::GoldenSta& sta = multi ? *hold_sta : *sta_;
    const core::EngineOptions opt =
        multi ? four_corners_with_hold() : core::EngineOptions{};
    core::Engine engine(sta, opt);
    engine.run_forward();
    const std::vector<std::vector<ArcDelta>> deltas{
        multi ? with_launch_edit(engine, scen[0]) : scen[0]};
    ScenarioBatch batch(engine);
    const auto results = batch.evaluate(deltas);
    ASSERT_EQ(results.size(), 1u);
    EXPECT_GT(results[0].frontier_pins, 0u);
    EXPECT_GT(results[0].overlay_bytes, 0u);
    core::Engine seq(sta, opt);
    seq.run_forward();
    seq.annotate(deltas[0]);
    seq.run_forward_incremental();
    expect_matches_committed(results[0], seq);
  }
}

/// summary(Mode) must agree with the single-field accessors.
TEST_P(ScenarioBatchTest, SummaryMatchesSingleFieldGetters) {
  core::Engine engine(*sta_, {});
  engine.run_forward();
  const SlackSummary s = engine.summary(Mode::kSetup, 0);
  EXPECT_EQ(s.tns, engine.tns());
  EXPECT_EQ(s.wns, engine.wns());
  EXPECT_EQ(s.violations, engine.num_violations());
}

// ---- Transaction ----------------------------------------------------------

/// rollback() must restore summaries, endpoint slacks, and every Top-K
/// entry to their exact pre-transaction bytes, and leave timing clean.
TEST_P(ScenarioBatchTest, TransactionRollbackRestoresExactState) {
  core::Engine engine(*sta_, {});
  engine.run_forward();
  const SlackSummary before = engine.summary(Mode::kSetup, 0);
  const std::vector<float> slack_before(engine.endpoint_slacks().begin(),
                                        engine.endpoint_slacks().end());

  util::Rng rng(GetParam() * 37 + 13);
  const auto scen = make_scenarios(rng, 3);
  ASSERT_FALSE(scen.empty());
  for (const auto& deltas : scen) {
    auto tx = engine.begin_edit();
    tx.annotate(deltas);
    engine.run_forward_incremental();
    EXPECT_TRUE(tx.active());
    tx.rollback();
    EXPECT_FALSE(tx.active());
    EXPECT_TRUE(engine.timing_clean());
    EXPECT_EQ(engine.summary(Mode::kSetup, 0), before);
    for (std::size_t e = 0; e < slack_before.size(); ++e) {
      const float after =
          engine.endpoint_slack(static_cast<timing::EndpointId>(e));
      if (std::isfinite(slack_before[e])) {
        ASSERT_EQ(slack_before[e], after) << "endpoint " << e;
      } else {
        ASSERT_FALSE(std::isfinite(after)) << "endpoint " << e;
      }
    }
  }
}

/// commit() keeps the edits, and the committed state is bit-identical to
/// what ScenarioBatch predicted for the same delta-set — at one corner, and
/// at four corners with hold on and a launch-arc edit.
TEST_P(ScenarioBatchTest, TransactionCommitMatchesWhatIf) {
  const std::unique_ptr<ref::GoldenSta> hold_sta = hold_reference();
  util::Rng rng(GetParam() * 41 + 17);
  const auto scen = make_scenarios(rng, 1);
  ASSERT_EQ(scen.size(), 1u);
  for (const bool multi : {false, true}) {
    SCOPED_TRACE(multi ? "4 corners, hold, launch arc" : "1 corner");
    core::Engine engine(multi ? *hold_sta : *sta_,
                        multi ? four_corners_with_hold()
                              : core::EngineOptions{});
    engine.run_forward();
    const std::vector<std::vector<ArcDelta>> deltas{
        multi ? with_launch_edit(engine, scen[0]) : scen[0]};
    ScenarioBatch batch(engine);
    const auto predicted = batch.evaluate(deltas);

    auto tx = engine.begin_edit();
    tx.annotate(deltas[0]);
    engine.run_forward_incremental();
    tx.commit();
    EXPECT_FALSE(tx.active());
    expect_matches_committed(predicted[0], engine);
  }
}

/// Destroying an active Transaction rolls it back.
TEST_P(ScenarioBatchTest, TransactionDtorRollsBack) {
  core::Engine engine(*sta_, {});
  engine.run_forward();
  const SlackSummary before = engine.summary(Mode::kSetup, 0);
  util::Rng rng(GetParam() * 43 + 19);
  const auto scen = make_scenarios(rng, 1);
  ASSERT_EQ(scen.size(), 1u);
  {
    auto tx = engine.begin_edit();
    tx.annotate(scen[0]);
    engine.run_forward_incremental();
  }  // ~Transaction
  EXPECT_TRUE(engine.timing_clean());
  EXPECT_EQ(engine.summary(Mode::kSetup, 0), before);
}

/// One Transaction per engine, and only on clean timing.
TEST_P(ScenarioBatchTest, TransactionGuards) {
  core::Engine engine(*sta_, {});
  engine.run_forward();
  {
    auto tx = engine.begin_edit();
    EXPECT_THROW((void)engine.begin_edit(), util::CheckError);
    tx.rollback();
  }
  util::Rng rng(GetParam() * 47 + 23);
  const auto scen = make_scenarios(rng, 1);
  ASSERT_EQ(scen.size(), 1u);
  engine.annotate(scen[0]);
  EXPECT_THROW((void)engine.begin_edit(), util::CheckError);
  engine.run_forward_incremental();
  auto tx = engine.begin_edit();  // clean again: fine
  tx.rollback();
}

/// The hand-rolled read_annotation/annotate rollback dance (what the removed
/// checkpoint()/restore() shims wrapped) still round-trips data-arc edits
/// exactly; Transaction is the first-class API, this guards the primitive.
TEST_P(ScenarioBatchTest, ReadAnnotationRoundTripsDataArcEdits) {
  core::Engine engine(*sta_, {});
  engine.run_forward();
  const std::vector<float> slack_before(engine.endpoint_slacks().begin(),
                                        engine.endpoint_slacks().end());
  util::Rng rng(GetParam() * 53 + 29);
  const auto scen = make_scenarios(rng, 1);
  ASSERT_EQ(scen.size(), 1u);

  std::vector<ArcDelta> saved;
  for (const ArcDelta& d : scen[0]) saved.push_back(engine.read_annotation(d.arc));
  engine.annotate(scen[0]);
  engine.run_forward_incremental();
  engine.annotate(saved);
  engine.run_forward_incremental();

  EXPECT_TRUE(engine.timing_clean());
  for (std::size_t e = 0; e < slack_before.size(); ++e) {
    const float after =
        engine.endpoint_slack(static_cast<timing::EndpointId>(e));
    if (std::isfinite(slack_before[e])) {
      ASSERT_EQ(slack_before[e], after) << "endpoint " << e;
    } else {
      ASSERT_FALSE(std::isfinite(after)) << "endpoint " << e;
    }
  }
}

// ---- structured delta diagnostics ----------------------------------------

/// check_deltas() classifies every way a delta can go wrong with stable
/// rule ids, and annotate_checked() applies exactly the clean subset.
TEST_P(ScenarioBatchTest, CheckDeltasDiagnostics) {
  core::Engine engine(*sta_, {});
  engine.run_forward();
  util::Rng rng(GetParam() * 59 + 31);
  const auto scen = make_scenarios(rng, 1);
  ASSERT_EQ(scen.size(), 1u);
  const std::vector<ArcDelta>& good = scen[0];
  ASSERT_GE(good.size(), 2u);

  const auto num_arcs = static_cast<timing::ArcId>(graph_->num_arcs());
  ArcDelta bad_range;
  bad_range.arc = num_arcs;  // one past the end

  timing::ArcId clock_arc = timing::kNullArc;
  for (timing::ArcId a = 0; a < num_arcs; ++a) {
    const timing::ArcRecord& rec = graph_->arc(a);
    if (rec.kind != timing::ArcKind::kLaunch &&
        graph_->is_clock_network(rec.to)) {
      clock_arc = a;
      break;
    }
  }
  ASSERT_NE(clock_arc, timing::kNullArc);
  ArcDelta bad_clock;
  bad_clock.arc = clock_arc;

  ArcDelta bad_value = good[1];
  bad_value.sigma[0] = -1.0;

  ArcDelta dup = good[0];
  dup.mu[0] = good[0].mu[0] + 1.0;  // last write must win

  const std::vector<ArcDelta> mixed = {bad_range, bad_clock, bad_value,
                                       good[0], dup};
  const analysis::LintReport rep = engine.check_deltas(mixed);
  EXPECT_TRUE(rep.has_errors());
  EXPECT_EQ(rep.count_rule("delta-arc-range"), 1u);
  EXPECT_EQ(rep.count_rule("delta-clock-arc"), 1u);
  EXPECT_EQ(rep.count_rule("delta-bad-value"), 1u);
  EXPECT_EQ(rep.count_rule("delta-duplicate-arc"), 1u);
  EXPECT_EQ(rep.count(analysis::Severity::kError), 3u);
  EXPECT_EQ(rep.count(analysis::Severity::kWarning), 1u);
  EXPECT_TRUE(engine.timing_clean());  // check_deltas never applies

  // annotate_checked: the erroneous entries are skipped, the clean ones
  // (including the duplicate, last-wins) are applied.
  const ArcDelta untouched_before = engine.read_annotation(good[1].arc);
  const analysis::LintReport rep2 = engine.annotate_checked(mixed);
  EXPECT_EQ(rep2.size(), rep.size());
  EXPECT_FALSE(engine.timing_clean());
  const ArcDelta applied = engine.read_annotation(good[0].arc);
  EXPECT_EQ(applied.mu[0], double(float(dup.mu[0])));
  const ArcDelta untouched_after = engine.read_annotation(good[1].arc);
  EXPECT_EQ(untouched_after.mu[0], untouched_before.mu[0]);
  EXPECT_EQ(untouched_after.sigma[0], untouched_before.sigma[0]);
  engine.run_forward_incremental();

  // A clean delta-set reports nothing and applies everything.
  const analysis::LintReport rep3 = engine.annotate_checked(good);
  EXPECT_TRUE(rep3.empty());
  EXPECT_FALSE(engine.timing_clean());
  engine.run_forward_incremental();
}

/// EngineOptions::validate() reports every problem at once and the Engine
/// constructor rejects invalid options with CheckError.
TEST_P(ScenarioBatchTest, OptionsValidateGatesConstruction) {
  EXPECT_TRUE(core::EngineOptions{}.validate().empty());
  core::EngineOptions bad;
  bad.top_k = 0;
  bad.tau = -1.0f;
  EXPECT_EQ(bad.validate().size(), 2u);
  EXPECT_THROW(core::Engine(*sta_, bad), util::CheckError);
}

/// evaluate() refuses dirty parents and invalid delta-sets, and stays
/// usable after a rejected call.
TEST_P(ScenarioBatchTest, EvaluateGuards) {
  core::Engine engine(*sta_, {});
  ScenarioBatch batch(engine);
  const std::vector<std::vector<ArcDelta>> empty_scen{{}};
  EXPECT_THROW((void)batch.evaluate(empty_scen), util::CheckError);

  engine.run_forward();
  ArcDelta bad;
  bad.arc = static_cast<timing::ArcId>(graph_->num_arcs());
  const std::vector<std::vector<ArcDelta>> bad_scen{{bad}};
  EXPECT_THROW((void)batch.evaluate(bad_scen), util::CheckError);

  const auto ok = batch.evaluate(empty_scen);
  EXPECT_EQ(ok.size(), 1u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, ScenarioBatchTest,
                         ::testing::Values(161u, 162u, 163u));

/// Two-domain clock designs: CPPR credits cross clock-tree boundaries, and
/// the overlaid scenario evaluation must still match sequentially exactly.
TEST(ScenarioBatchMulticlock, MatchesSequentialBitIdentical) {
  for (const std::uint64_t seed : {241u, 242u}) {
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

    core::Engine engine(sta, {});
    engine.run_forward();
    ScenarioBatchOptions opt;
    opt.collect_endpoints = true;
    ScenarioBatch batch(engine, opt);

    util::Rng rng(seed * 13 + 7);
    const auto changes = gen::random_changelist(*gd.design, graph, rng, 8);
    std::vector<std::vector<ArcDelta>> scen;
    for (const auto& ch : changes) {
      scen.push_back(calc.estimate_eco(ch.cell, ch.new_libcell));
    }
    ASSERT_FALSE(scen.empty());
    expect_scenarios_match_both_shapes(engine, batch, scen);
  }
}

/// Hold analysis: both the setup and hold summaries and both slack arrays
/// ride the overlays. The engine runs every loop on the pool, so the
/// level-parallel shape exercises the thread-pool kernels even on a tiny
/// design.
TEST(ScenarioBatchHold, MatchesSequentialBitIdentical) {
  for (const std::uint64_t seed : {251u, 252u}) {
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
    core::Engine engine = core::EngineTestPeer::pooled(sta, eopt);
    engine.run_forward();
    ScenarioBatchOptions opt;
    opt.collect_endpoints = true;
    ScenarioBatch batch(engine, opt);

    util::Rng rng(seed * 17 + 9);
    const auto changes = gen::random_changelist(*gd.design, graph, rng, 8);
    std::vector<std::vector<ArcDelta>> scen;
    for (const auto& ch : changes) {
      scen.push_back(calc.estimate_eco(ch.cell, ch.new_libcell));
    }
    ASSERT_FALSE(scen.empty());
    expect_scenarios_match_both_shapes(engine, batch, scen);
  }
}

}  // namespace
}  // namespace insta
