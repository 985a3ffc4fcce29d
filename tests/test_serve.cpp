// Tests of the timing-query service layer: option validation at the CLI
// trust boundary, protocol parse/serialize round-trips, snapshot-isolated
// reads, what-if bit-identity against direct ScenarioBatch evaluation,
// exclusive-edit workflow, admission control, a concurrent reader/what-if/
// commit stress (the TSan target), and socket end-to-end equivalence.

#include <gtest/gtest.h>

#include <unistd.h>

#include <atomic>
#include <cmath>
#include <cstdint>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "analysis/diagnostics.hpp"
#include "core/engine.hpp"
#include "core/scenario_batch.hpp"
#include "gen/changelist.hpp"
#include "gen/logic_block.hpp"
#include "gen/presets.hpp"
#include "gen/tune.hpp"
#include "ref/golden_sta.hpp"
#include "replica/codec.hpp"
#include "serve/client.hpp"
#include "serve/protocol.hpp"
#include "serve/server.hpp"
#include "serve/service.hpp"
#include "telemetry/flight_recorder.hpp"
#include "telemetry/json.hpp"
#include "telemetry/telemetry.hpp"
#include "timing/delay_calc.hpp"
#include "util/check.hpp"
#include "util/log.hpp"
#include "util/rng.hpp"

namespace insta {
namespace {

using core::Mode;
using core::SlackSummary;
using serve::ErrorCode;
using serve::TimingService;
using timing::ArcDelta;

bool has_problem(const std::vector<std::string>& problems,
                 const std::string& needle) {
  for (const std::string& p : problems) {
    if (p.find(needle) != std::string::npos) return true;
  }
  return false;
}

bool has_rule(const analysis::LintReport& report, const std::string& rule) {
  for (const analysis::Diagnostic& d : report.diagnostics()) {
    if (d.rule == rule) return true;
  }
  return false;
}

// ---- options validation (the CLI trust boundary) ---------------------------

TEST(ServeOptions, ServiceValidateReportsEveryProblemAtOnce) {
  serve::ServiceOptions opt;
  EXPECT_TRUE(opt.validate().empty());

  opt.batch_window_us = -1;
  opt.max_batch = 0;
  opt.max_queue = 0;
  opt.max_inflight_per_session = 0;
  opt.max_sessions = 0;
  const std::vector<std::string> problems = opt.validate();
  EXPECT_TRUE(has_problem(problems, "batch_window_us"));
  EXPECT_TRUE(has_problem(problems, "max_batch"));
  EXPECT_TRUE(has_problem(problems, "max_queue"));
  EXPECT_TRUE(has_problem(problems, "max_inflight_per_session"));
  EXPECT_TRUE(has_problem(problems, "max_sessions"));
  EXPECT_GE(problems.size(), 5u);
}

TEST(ServeOptions, ServiceValidateRejectsQueueSmallerThanBatch) {
  serve::ServiceOptions opt;
  opt.max_batch = 32;
  opt.max_queue = 8;
  EXPECT_TRUE(has_problem(opt.validate(), "max_queue must be >= max_batch"));
  opt.max_queue = 32;
  EXPECT_TRUE(opt.validate().empty());
  opt.batch_window_us = 20'000'000;  // > 10 s window makes no sense
  EXPECT_FALSE(opt.validate().empty());
}

TEST(ServeOptions, ServerValidateChecksEndpointAndConnectionKnobs) {
  serve::ServerOptions opt;
  EXPECT_TRUE(opt.validate().empty());
  opt.port = 70000;
  opt.max_connections = 0;
  const std::vector<std::string> problems = opt.validate();
  EXPECT_TRUE(has_problem(problems, "port"));
  EXPECT_TRUE(has_problem(problems, "max_connections"));

  serve::ServerOptions unix_opt;
  unix_opt.unix_path = std::string(200, 'x');  // longer than sun_path
  EXPECT_TRUE(has_problem(unix_opt.validate(), "unix_path"));
}

/// The engine knobs the serve CLI forwards (top_k etc.) are rejected with
/// one message per bad field, not a first-failure abort.
TEST(ServeOptions, EngineValidateRejectsBadKnobs) {
  core::EngineOptions eopt;
  EXPECT_TRUE(eopt.validate().empty());

  eopt.top_k = 0;
  eopt.tau = std::numeric_limits<float>::infinity();
  const std::vector<std::string> problems = eopt.validate();
  EXPECT_TRUE(has_problem(problems, "top_k"));
  EXPECT_TRUE(has_problem(problems, "tau"));
  EXPECT_EQ(problems.size(), 2u);
}

// ---- protocol parsing ------------------------------------------------------

TEST(Protocol, ParseRequestReportsJsonErrorsViaTelemetryParser) {
  serve::Request req;
  analysis::LintReport report;
  EXPECT_FALSE(serve::parse_request("{not json", req, report));
  EXPECT_TRUE(report.has_errors());
  EXPECT_TRUE(has_rule(report, "req-json"));
}

TEST(Protocol, ParseRequestReportsShapeErrors) {
  {
    serve::Request req;
    analysis::LintReport report;
    EXPECT_FALSE(serve::parse_request("[1, 2]", req, report));
    EXPECT_TRUE(has_rule(report, "req-shape"));
  }
  {
    serve::Request req;
    analysis::LintReport report;
    EXPECT_FALSE(serve::parse_request(R"({"id": 1})", req, report));
    EXPECT_TRUE(has_rule(report, "req-shape"));  // no op
  }
  {
    serve::Request req;
    analysis::LintReport report;
    EXPECT_FALSE(serve::parse_request(
        R"({"id": 1.5, "op": "summary"})", req, report));
    EXPECT_TRUE(has_rule(report, "req-shape"));  // fractional id
  }
  {
    serve::Request req;
    analysis::LintReport report;
    EXPECT_FALSE(serve::parse_request(
        R"({"op": "endpoints", "worst": -3})", req, report));
    EXPECT_TRUE(has_rule(report, "req-shape"));
  }
}

TEST(Protocol, ParseRequestAcceptsFullWhatif) {
  serve::Request req;
  analysis::LintReport report;
  ASSERT_TRUE(serve::parse_request(
      R"({"id": 7, "op": "whatif", "session": 3, "scenarios":)"
      R"( [{"label": "a", "deltas": [{"arc": 5, "mu": [1.5, 2.5],)"
      R"( "sigma": [0.1, 0.2]}]}, {"deltas": []}]})",
      req, report))
      << report.str();
  EXPECT_EQ(req.id, 7);
  EXPECT_EQ(req.op, "whatif");
  EXPECT_EQ(req.session, 3);
  ASSERT_EQ(req.scenarios.size(), 2u);
  ASSERT_EQ(req.labels.size(), 2u);
  EXPECT_EQ(req.labels[0], "a");
  EXPECT_EQ(req.labels[1], "scenario-1");
  ASSERT_EQ(req.scenarios[0].size(), 1u);
  EXPECT_EQ(req.scenarios[0][0].arc, 5);
  EXPECT_EQ(req.scenarios[0][0].mu[1], 2.5);
  EXPECT_EQ(req.scenarios[0][0].sigma[0], 0.1);
  EXPECT_TRUE(req.scenarios[1].empty());
}

TEST(Protocol, ParseScenariosJsonFailureModes) {
  const auto parse = [](const char* text, analysis::LintReport& report) {
    telemetry::JsonValue doc;
    std::string error;
    EXPECT_TRUE(telemetry::json_parse(text, doc, error)) << error;
    std::vector<std::vector<ArcDelta>> scenarios;
    std::vector<std::string> labels;
    return serve::parse_scenarios_json(doc, scenarios, labels, report);
  };
  {
    analysis::LintReport report;
    EXPECT_FALSE(parse(R"({"no_scenarios": 1})", report));
    EXPECT_TRUE(has_rule(report, "whatif-shape"));
  }
  {
    analysis::LintReport report;
    EXPECT_FALSE(parse(R"([42])", report));  // scenario is not an object
    EXPECT_TRUE(has_rule(report, "whatif-shape"));
  }
  {
    analysis::LintReport report;
    EXPECT_FALSE(parse(R"([{"label": "x"}])", report));  // no deltas
    EXPECT_TRUE(has_rule(report, "whatif-shape"));
  }
  {
    analysis::LintReport report;
    EXPECT_FALSE(parse(R"([{"deltas": [{"mu": [1, 2]}]}])", report));
    EXPECT_TRUE(has_rule(report, "whatif-shape"));  // delta without arc
  }
  {
    analysis::LintReport report;
    EXPECT_FALSE(parse(R"([{"deltas": [{"arc": 1, "mu": [1]}]}])", report));
    EXPECT_TRUE(has_rule(report, "whatif-shape"));  // mu is not a pair
  }
  {
    // An empty scenario list is structurally fine (the service layer
    // decides whether to reject it).
    analysis::LintReport report;
    EXPECT_TRUE(parse(R"({"scenarios": []})", report));
    EXPECT_FALSE(report.has_errors());
  }
}

TEST(Protocol, ReplyBuildersEmitParseableJson) {
  {
    telemetry::JsonValue doc;
    std::string error;
    ASSERT_TRUE(telemetry::json_parse(
        serve::ok_reply(12, "{\"x\": 1}"), doc, error))
        << error;
    EXPECT_EQ(doc.find("id")->number, 12.0);
    EXPECT_TRUE(doc.find("ok")->boolean);
    EXPECT_EQ(doc.find("result")->find("x")->number, 1.0);
  }
  {
    analysis::LintReport report;
    analysis::Diagnostic d;
    d.rule = "req-json";
    d.severity = analysis::Severity::kError;
    d.message = "broken \"quoted\" input";
    report.add(std::move(d));
    telemetry::JsonValue doc;
    std::string error;
    ASSERT_TRUE(telemetry::json_parse(
        serve::error_reply(3, ErrorCode::kBadRequest, "malformed", &report),
        doc, error))
        << error;
    EXPECT_FALSE(doc.find("ok")->boolean);
    const telemetry::JsonValue* err = doc.find("error");
    ASSERT_NE(err, nullptr);
    EXPECT_EQ(err->find("code")->string, "bad-request");
    ASSERT_NE(err->find("diagnostics"), nullptr);
    ASSERT_EQ(err->find("diagnostics")->array.size(), 1u);
    EXPECT_EQ(err->find("diagnostics")->array[0].find("rule")->string,
              "req-json");
  }
}

// ---- service fixture -------------------------------------------------------

class ServeTest : public ::testing::Test {
 protected:
  void SetUp() override { build(7); }

  void build(std::uint64_t seed) {
    gd_ = gen::build_logic_block(gen::tiny_spec(seed));
    graph_ = std::make_unique<timing::TimingGraph>(*gd_.design,
                                                   gd_.constraints.clock_root);
    calc_ = std::make_unique<timing::DelayCalculator>(*gd_.design, *graph_);
    calc_->compute_all(delays_);
    gen::tune_clock_period(*graph_, gd_.constraints, delays_, 0.1);
    sta_ = std::make_unique<ref::GoldenSta>(*graph_, gd_.constraints, delays_);
    sta_->update_full();
  }

  std::unique_ptr<core::Engine> make_engine(bool hold = false) {
    core::EngineOptions eopt;
    eopt.enable_hold = hold;
    auto engine = std::make_unique<core::Engine>(*sta_, eopt);
    engine->run_forward();
    return engine;
  }

  std::vector<std::vector<ArcDelta>> make_scenarios(util::Rng& rng,
                                                    std::size_t n) {
    const auto changes = gen::random_changelist(*gd_.design, *graph_, rng,
                                                static_cast<int>(n));
    std::vector<std::vector<ArcDelta>> scen;
    for (const auto& ch : changes) {
      scen.push_back(calc_->estimate_eco(ch.cell, ch.new_libcell));
    }
    for (std::size_t i = 0; scen.size() < n && !scen.empty(); ++i) {
      scen.push_back(scen[i % changes.size()]);
    }
    return scen;
  }

  gen::GeneratedDesign gd_;
  std::unique_ptr<timing::TimingGraph> graph_;
  std::unique_ptr<timing::DelayCalculator> calc_;
  timing::ArcDelays delays_;
  std::unique_ptr<ref::GoldenSta> sta_;
};

TEST_F(ServeTest, SnapshotMatchesEngineStateAndVersion) {
  auto engine = make_engine(/*hold=*/true);
  TimingService service(*engine);
  const auto snap = service.snapshot();
  ASSERT_NE(snap, nullptr);
  EXPECT_EQ(snap->version, engine->generation());
  EXPECT_TRUE(snap->has_hold);
  // The snapshot's headline summaries are the cross-corner merged view
  // (identical to corner 0 on this single-corner engine).
  EXPECT_EQ(snap->setup, engine->merged_summary(Mode::kSetup));
  EXPECT_EQ(snap->hold, engine->merged_summary(Mode::kHold));
  ASSERT_EQ(snap->slack.size(), graph_->endpoints().size());
  ASSERT_EQ(snap->hold_slack.size(), graph_->endpoints().size());
  for (std::size_t e = 0; e < snap->slack.size(); ++e) {
    const auto ep = static_cast<timing::EndpointId>(e);
    if (std::isfinite(engine->endpoint_slack(ep))) {
      EXPECT_EQ(snap->slack[e], engine->endpoint_slack(ep));
    }
    if (std::isfinite(engine->endpoint_hold_slack(ep))) {
      EXPECT_EQ(snap->hold_slack[e], engine->endpoint_hold_slack(ep));
    }
  }
  EXPECT_EQ(service.stats().snapshots_published, 1u);
}

TEST_F(ServeTest, ConstructorRejectsInvalidOptionsAndDirtyEngine) {
  auto engine = make_engine();
  serve::ServiceOptions bad;
  bad.max_batch = 0;
  EXPECT_THROW(TimingService(*engine, bad), util::CheckError);

  util::Rng rng(3);
  const auto scen = make_scenarios(rng, 1);
  ASSERT_FALSE(scen.empty());
  engine->annotate(scen[0]);  // pending annotations → not timing-clean
  EXPECT_THROW(TimingService{*engine}, util::CheckError);
}

/// The service's what-if replies must be exactly what a direct
/// ScenarioBatch::evaluate over the same engine produces.
TEST_F(ServeTest, WhatifMatchesDirectScenarioBatchExactly) {
  auto engine = make_engine(/*hold=*/true);
  util::Rng rng(11);
  const auto scen = make_scenarios(rng, 6);
  ASSERT_EQ(scen.size(), 6u);

  core::ScenarioBatch direct(*engine);
  const std::vector<core::ScenarioResult> expect = direct.evaluate(scen);

  TimingService service(*engine);
  serve::SessionId sid = -1;
  ASSERT_TRUE(service.open_session(sid).ok());
  TimingService::WhatifReply reply;
  const serve::Error err = service.whatif(sid, scen, reply);
  ASSERT_TRUE(err.ok()) << err.message;
  EXPECT_EQ(reply.version, engine->generation());
  ASSERT_EQ(reply.results.size(), expect.size());
  for (std::size_t i = 0; i < expect.size(); ++i) {
    EXPECT_EQ(reply.results[i].setup, expect[i].setup) << "scenario " << i;
    EXPECT_EQ(reply.results[i].hold, expect[i].hold) << "scenario " << i;
  }
  const serve::ServiceStats st = service.stats();
  EXPECT_EQ(st.whatif_requests, 1u);
  EXPECT_EQ(st.whatif_scenarios, 6u);
  EXPECT_GE(st.batches, 1u);
  EXPECT_TRUE(service.close_session(sid).ok());
}

TEST_F(ServeTest, WhatifRejectsBadInput) {
  auto engine = make_engine();
  TimingService service(*engine);
  serve::SessionId sid = -1;
  ASSERT_TRUE(service.open_session(sid).ok());

  TimingService::WhatifReply reply;
  EXPECT_EQ(service.whatif(sid, {}, reply).code, ErrorCode::kBadRequest);
  EXPECT_EQ(service.whatif(sid + 999, {{ArcDelta{}}}, reply).code,
            ErrorCode::kBadSession);

  // An out-of-range arc is rejected before it can reach the evaluator, with
  // the check_deltas diagnostics attached.
  ArcDelta bad;
  bad.arc = static_cast<timing::ArcId>(graph_->num_arcs() + 100);
  const serve::Error err = service.whatif(sid, {{bad}}, reply);
  EXPECT_EQ(err.code, ErrorCode::kBadRequest);
  EXPECT_TRUE(has_rule(err.diagnostics, "delta-arc-range"));
}

TEST_F(ServeTest, CommitPublishesNewSnapshotAndOldOneStaysIsolated) {
  auto engine = make_engine();
  util::Rng rng(17);
  const auto scen = make_scenarios(rng, 1);
  ASSERT_EQ(scen.size(), 1u);

  // Ground truth of the committed world: the same transactional edit run
  // directly, summaries recorded, then rolled back to the pre-edit bytes.
  SlackSummary committed_setup;
  {
    core::Engine::Transaction tx = engine->begin_edit();
    tx.annotate(scen[0]);
    engine->run_forward_incremental();
    committed_setup = engine->summary(Mode::kSetup, 0);
    tx.rollback();
  }
  const SlackSummary baseline_setup = engine->summary(Mode::kSetup, 0);

  TimingService service(*engine);
  const auto before = service.snapshot();
  EXPECT_EQ(before->setup, baseline_setup);

  serve::SessionId sid = -1;
  ASSERT_TRUE(service.open_session(sid).ok());
  ASSERT_TRUE(service.begin_edit(sid).ok());
  ASSERT_TRUE(service.annotate(sid, scen[0]).ok());
  // Buffered, not yet applied: readers still see the baseline.
  EXPECT_EQ(service.snapshot()->setup, baseline_setup);

  TimingService::CommitReply reply;
  ASSERT_TRUE(service.commit(sid, reply).ok());
  EXPECT_EQ(reply.setup, committed_setup);
  EXPECT_GT(reply.version, before->version);

  const auto after = service.snapshot();
  EXPECT_EQ(after->version, reply.version);
  EXPECT_EQ(after->setup, committed_setup);
  // Snapshot isolation: the pre-commit snapshot still reads its own world.
  EXPECT_EQ(before->setup, baseline_setup);
  EXPECT_LT(before->version, after->version);
  EXPECT_EQ(service.stats().commits, 1u);
}

TEST_F(ServeTest, EditSlotIsExclusiveAndRollbackReleasesIt) {
  auto engine = make_engine();
  TimingService service(*engine);
  serve::SessionId a = -1, b = -1;
  ASSERT_TRUE(service.open_session(a).ok());
  ASSERT_TRUE(service.open_session(b).ok());

  EXPECT_EQ(service.annotate(a, {}).code, ErrorCode::kBadSession);
  TimingService::CommitReply creply;
  EXPECT_EQ(service.commit(a, creply).code, ErrorCode::kBadSession);

  ASSERT_TRUE(service.begin_edit(a).ok());
  EXPECT_EQ(service.begin_edit(b).code, ErrorCode::kEditConflict);
  EXPECT_EQ(service.begin_edit(a).code, ErrorCode::kBadSession);  // re-entry

  // Invalid deltas are rejected as a whole with diagnostics; the edit
  // stays open with nothing buffered.
  ArcDelta bad;
  bad.arc = -5;
  const serve::Error err = service.annotate(a, std::vector<ArcDelta>{bad});
  EXPECT_EQ(err.code, ErrorCode::kBadRequest);
  EXPECT_TRUE(has_rule(err.diagnostics, "delta-arc-range"));

  ASSERT_TRUE(service.rollback(a).ok());
  EXPECT_EQ(service.rollback(a).code, ErrorCode::kBadSession);
  ASSERT_TRUE(service.begin_edit(b).ok());  // slot was released

  // Closing a session with an open edit rolls it back implicitly.
  ASSERT_TRUE(service.close_session(b).ok());
  EXPECT_EQ(service.stats().rollbacks, 2u);
  ASSERT_TRUE(service.begin_edit(a).ok());
  // A commit with no buffered deltas succeeds without republishing.
  const std::uint64_t published = service.stats().snapshots_published;
  ASSERT_TRUE(service.commit(a, creply).ok());
  EXPECT_EQ(service.stats().snapshots_published, published);
}

TEST_F(ServeTest, AdmissionControlShedsWithStructuredErrors) {
  auto engine = make_engine();
  serve::ServiceOptions opt;
  opt.max_sessions = 2;
  opt.max_queue = 2;
  opt.max_batch = 2;
  opt.max_inflight_per_session = 1;
  opt.batch_window_us = 0;
  TimingService service(*engine, opt);

  serve::SessionId a = -1, b = -1, c = -1;
  ASSERT_TRUE(service.open_session(a).ok());
  ASSERT_TRUE(service.open_session(b).ok());
  const serve::Error err = service.open_session(c);
  EXPECT_EQ(err.code, ErrorCode::kOverloaded);
  EXPECT_FALSE(err.message.empty());

  // A request larger than the whole queue bound can never be admitted:
  // structural shedding, no stall.
  util::Rng rng(5);
  const auto scen = make_scenarios(rng, 3);
  ASSERT_EQ(scen.size(), 3u);
  TimingService::WhatifReply reply;
  EXPECT_EQ(service.whatif(a, scen, reply).code, ErrorCode::kOverloaded);
  EXPECT_GE(service.stats().shed, 2u);

  // The same scenarios fit in two admitted requests.
  ASSERT_TRUE(service
                  .whatif(a, {scen.begin(), scen.begin() + 2}, reply)
                  .ok());
  ASSERT_TRUE(service.whatif(b, {scen.begin() + 2, scen.end()}, reply).ok());
}

TEST_F(ServeTest, InflightCapShedsConcurrentRequestsOnOneSession) {
  auto engine = make_engine();
  serve::ServiceOptions opt;
  opt.max_inflight_per_session = 1;
  // A long window keeps the first request collecting while the second
  // arrives (max_batch larger than the queued scenario count, so the
  // leader sleeps out the window).
  opt.batch_window_us = 300'000;
  opt.max_batch = 64;
  opt.max_queue = 64;
  TimingService service(*engine, opt);

  serve::SessionId sid = -1;
  ASSERT_TRUE(service.open_session(sid).ok());
  util::Rng rng(23);
  const auto scen = make_scenarios(rng, 1);
  ASSERT_EQ(scen.size(), 1u);

  serve::Error first_err;
  TimingService::WhatifReply first_reply;
  std::thread first([&] {
    first_err = service.whatif(sid, scen, first_reply);
  });
  // Wait until the first request is admitted (whatif_requests increments
  // only after its inflight slot is taken and it is queued), then collide
  // while its batch leader sleeps out the 300 ms window. Colliding before
  // this point could win the inflight slot and shed the first request.
  for (int spin = 0; spin < 2000; ++spin) {
    if (service.stats().whatif_requests >= 1) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  ASSERT_EQ(service.stats().whatif_requests, 1u);
  serve::Error second_err;
  TimingService::WhatifReply second_reply;
  second_err = service.whatif(sid, scen, second_reply);
  EXPECT_EQ(second_err.code, ErrorCode::kOverloaded);
  first.join();
  EXPECT_TRUE(first_err.ok()) << first_err.message;
  EXPECT_GE(service.stats().shed, 1u);
}

/// The TSan target: concurrent snapshot readers and what-if sessions racing
/// one exclusive edit commit. Every reply must be internally consistent —
/// results bit-identical to the pre-commit or post-commit ground truth
/// matching its reported version, never a mix.
TEST_F(ServeTest, ConcurrentReadersWhatifsAndCommitStayConsistent) {
  auto engine = make_engine();
  util::Rng rng(29);
  const auto scen = make_scenarios(rng, 4);
  ASSERT_EQ(scen.size(), 4u);
  const auto edit = make_scenarios(rng, 1);
  ASSERT_EQ(edit.size(), 1u);

  // Ground truth at both baselines, computed with the engine offline.
  core::ScenarioBatch direct(*engine);
  const std::vector<core::ScenarioResult> ref1 = direct.evaluate(scen);
  const SlackSummary s1 = engine->summary(Mode::kSetup, 0);
  std::vector<core::ScenarioResult> ref2;
  SlackSummary s2;
  {
    core::Engine::Transaction tx = engine->begin_edit();
    tx.annotate(edit[0]);
    engine->run_forward_incremental();
    s2 = engine->summary(Mode::kSetup, 0);
    ref2 = direct.evaluate(scen);
    tx.rollback();
  }
  ASSERT_EQ(engine->summary(Mode::kSetup, 0), s1);  // rollback restored bytes

  serve::ServiceOptions opt;
  opt.batch_window_us = 100;  // small window → many leader hand-offs
  TimingService service(*engine, opt);
  const std::uint64_t v1 = service.snapshot()->version;

  std::atomic<int> failures{0};
  constexpr int kIters = 40;

  std::vector<std::thread> threads;
  for (int t = 0; t < 2; ++t) {
    threads.emplace_back([&] {  // readers
      for (int i = 0; i < kIters; ++i) {
        const auto snap = service.snapshot();
        const SlackSummary& want = snap->version == v1 ? s1 : s2;
        if (!(snap->setup == want)) failures.fetch_add(1);
      }
    });
  }
  for (int t = 0; t < 2; ++t) {
    threads.emplace_back([&, t] {  // what-if sessions
      serve::SessionId sid = -1;
      if (!service.open_session(sid).ok()) {
        failures.fetch_add(1);
        return;
      }
      util::Rng pick(100 + static_cast<std::uint64_t>(t));
      for (int i = 0; i < kIters; ++i) {
        const auto which = static_cast<std::size_t>(pick() % scen.size());
        TimingService::WhatifReply reply;
        const serve::Error err =
            service.whatif(sid, {scen[which]}, reply);
        if (!err.ok() && err.code != ErrorCode::kOverloaded) {
          failures.fetch_add(1);
          continue;
        }
        if (!err.ok()) continue;  // shed under load is legal
        const core::ScenarioResult& want =
            reply.version == v1 ? ref1[which] : ref2[which];
        if (!(reply.results[0].setup == want.setup)) failures.fetch_add(1);
      }
      if (!service.close_session(sid).ok()) failures.fetch_add(1);
    });
  }
  threads.emplace_back([&] {  // one exclusive edit commit mid-flight
    serve::SessionId sid = -1;
    if (!service.open_session(sid).ok()) {
      failures.fetch_add(1);
      return;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
    TimingService::CommitReply reply;
    if (!service.begin_edit(sid).ok() ||
        !service.annotate(sid, edit[0]).ok() ||
        !service.commit(sid, reply).ok() || !(reply.setup == s2)) {
      failures.fetch_add(1);
    }
  });
  for (std::thread& t : threads) t.join();

  EXPECT_EQ(failures.load(), 0);
  EXPECT_EQ(service.snapshot()->setup, s2);
  EXPECT_EQ(service.stats().commits, 1u);
}

// ---- dispatcher + socket ---------------------------------------------------

TEST_F(ServeTest, DispatcherHandlesCoreOpsAndErrors) {
  auto engine = make_engine();
  TimingService service(*engine);
  serve::Dispatcher dispatcher(service);

  const auto parse = [](const std::string& line) {
    telemetry::JsonValue doc;
    std::string error;
    EXPECT_TRUE(telemetry::json_parse(line, doc, error)) << error << line;
    return doc;
  };

  {
    const auto doc = parse(dispatcher.dispatch(R"({"id": 1, "op": "ping"})"));
    EXPECT_TRUE(doc.find("ok")->boolean);
    EXPECT_TRUE(doc.find("result")->find("pong")->boolean);
  }
  {
    const auto doc = parse(dispatcher.dispatch("{garbage"));
    EXPECT_FALSE(doc.find("ok")->boolean);
    EXPECT_EQ(doc.find("error")->find("code")->string, "bad-request");
    const telemetry::JsonValue* diags = doc.find("error")->find("diagnostics");
    ASSERT_NE(diags, nullptr);
    EXPECT_EQ(diags->array[0].find("rule")->string, "req-json");
  }
  {
    const auto doc =
        parse(dispatcher.dispatch(R"({"id": 2, "op": "launch_missiles"})"));
    EXPECT_FALSE(doc.find("ok")->boolean);
    EXPECT_EQ(doc.find("error")->find("code")->string, "bad-request");
  }
  {
    const auto doc = parse(dispatcher.dispatch(R"({"id": 3, "op": "info"})"));
    EXPECT_TRUE(doc.find("ok")->boolean);
    EXPECT_EQ(doc.find("result")->find("endpoints")->number,
              static_cast<double>(graph_->endpoints().size()));
    EXPECT_EQ(doc.find("result")->find("arcs")->number,
              static_cast<double>(graph_->num_arcs()));
  }
  {
    const auto doc =
        parse(dispatcher.dispatch(R"({"id": 4, "op": "summary"})"));
    EXPECT_TRUE(doc.find("ok")->boolean);
    const SlackSummary s = engine->summary(Mode::kSetup, 0);
    EXPECT_EQ(doc.find("result")->find("setup")->find("tns")->number, s.tns);
    EXPECT_EQ(doc.find("result")->find("setup")->find("wns")->number, s.wns);
  }
  {
    const auto doc = parse(dispatcher.dispatch(
        R"({"id": 5, "op": "endpoints", "ids": [999999]})"));
    EXPECT_FALSE(doc.find("ok")->boolean);
    EXPECT_EQ(doc.find("error")->find("code")->string, "bad-request");
  }
  {
    // Worst-N endpoints arrive sorted ascending by snapshot slack.
    const auto doc = parse(dispatcher.dispatch(
        R"({"id": 6, "op": "endpoints", "worst": 4})"));
    ASSERT_TRUE(doc.find("ok")->boolean);
    const telemetry::JsonValue& eps = *doc.find("result")->find("endpoints");
    ASSERT_EQ(eps.array.size(), 4u);
    const auto snap = service.snapshot();
    double prev = -std::numeric_limits<double>::infinity();
    for (const telemetry::JsonValue& ep : eps.array) {
      const auto e = static_cast<std::size_t>(ep.find("ep")->number);
      const telemetry::JsonValue* slack = ep.find("slack");
      ASSERT_LT(e, snap->slack.size());
      if (slack->is_number()) {
        EXPECT_EQ(slack->number, static_cast<double>(snap->slack[e]));
        EXPECT_GE(slack->number, prev);
        prev = slack->number;
      }
    }
  }
  {
    const auto doc = parse(dispatcher.dispatch(R"({"id": 7, "op": "stats"})"));
    EXPECT_TRUE(doc.find("ok")->boolean);
    EXPECT_GE(doc.find("result")->find("sessions_opened")->number, 0.0);
  }
  {
    bool shutdown = false;
    const auto doc = parse(dispatcher.dispatch(
        R"({"id": 8, "op": "shutdown"})", &shutdown));
    EXPECT_TRUE(doc.find("ok")->boolean);
    EXPECT_TRUE(shutdown);
  }
}

/// Protocol 3: the replication verbs (sync, delta_stream) and the extended
/// stats identity block (protocol, generation, corners, read_only,
/// whatif_cache). A request's "protocol" member selects nothing: every
/// connection keeps every verb.
TEST_F(ServeTest, ReplicationProtocolSyncDeltaStreamAndStats) {
  auto engine = make_engine();
  TimingService service(*engine);
  serve::Dispatcher dispatcher(service);

  const auto parse = [](const std::string& line) {
    telemetry::JsonValue doc;
    std::string error;
    EXPECT_TRUE(telemetry::json_parse(line, doc, error)) << error << line;
    return doc;
  };
  const std::uint64_t base = service.snapshot()->version;

  {
    const auto doc = parse(dispatcher.dispatch(R"({"id": 1, "op": "stats"})"));
    ASSERT_TRUE(doc.find("ok")->boolean);
    const telemetry::JsonValue& r = *doc.find("result");
    EXPECT_EQ(r.find("protocol")->number,
              static_cast<double>(serve::kProtocolVersion));
    EXPECT_EQ(r.find("generation")->number, static_cast<double>(base));
    ASSERT_TRUE(r.find("corners")->is_array());
    ASSERT_EQ(r.find("corners")->array.size(), 1u);
    EXPECT_EQ(r.find("corners")->array[0].string,
              service.snapshot()->corners[0]);
    EXPECT_FALSE(r.find("read_only")->boolean);
    ASSERT_NE(r.find("whatif_cache"), nullptr);
    EXPECT_EQ(r.find("whatif_cache")->find("hits")->number, 0.0);
    // Not a replica: no replication block.
    EXPECT_EQ(r.find("replication"), nullptr);
  }
  {
    // sync ships the full engine state as one base64 binary frame.
    const auto doc = parse(dispatcher.dispatch(R"({"id": 2, "op": "sync"})"));
    ASSERT_TRUE(doc.find("ok")->boolean);
    const telemetry::JsonValue& r = *doc.find("result");
    EXPECT_EQ(r.find("generation")->number, static_cast<double>(base));
    std::string frame;
    ASSERT_TRUE(replica::base64_decode(r.find("snapshot")->string, frame));
    core::EngineState st;
    ASSERT_TRUE(replica::decode_snapshot(frame, st).empty());
    EXPECT_EQ(st.generation, base);
  }
  {
    // Up to date: an empty, non-resync delta stream.
    const auto doc = parse(dispatcher.dispatch(
        R"({"id": 3, "op": "delta_stream", "from": )" + std::to_string(base) +
        "}"));
    ASSERT_TRUE(doc.find("ok")->boolean);
    const telemetry::JsonValue& r = *doc.find("result");
    EXPECT_FALSE(r.find("resync")->boolean);
    EXPECT_TRUE(r.find("deltas")->array.empty());
    EXPECT_EQ(r.find("generation")->number, static_cast<double>(base));
  }

  // One committed edit becomes one decodable, chaining delta.
  util::Rng rng(17);
  const auto scen = make_scenarios(rng, 1);
  ASSERT_FALSE(scen.empty());
  serve::SessionId sid = -1;
  ASSERT_TRUE(service.open_session(sid).ok());
  ASSERT_TRUE(service.begin_edit(sid).ok());
  ASSERT_TRUE(service.annotate(sid, scen[0]).ok());
  TimingService::CommitReply cr;
  ASSERT_TRUE(service.commit(sid, cr).ok());

  {
    const auto doc = parse(dispatcher.dispatch(
        R"({"id": 4, "op": "delta_stream", "from": )" + std::to_string(base) +
        "}"));
    ASSERT_TRUE(doc.find("ok")->boolean);
    const telemetry::JsonValue& r = *doc.find("result");
    EXPECT_FALSE(r.find("resync")->boolean);
    EXPECT_EQ(r.find("generation")->number, static_cast<double>(cr.version));
    ASSERT_EQ(r.find("deltas")->array.size(), 1u);
    std::string frame;
    ASSERT_TRUE(
        replica::base64_decode(r.find("deltas")->array[0].string, frame));
    replica::CommitRecord rec;
    ASSERT_TRUE(replica::decode_delta(frame, rec).empty());
    EXPECT_EQ(rec.parent_generation, base);
    EXPECT_EQ(rec.generation, cr.version);
    ASSERT_EQ(rec.sets.size(), 1u);
    EXPECT_TRUE(timing::deltas_equal(rec.sets[0].deltas, scen[0]));
  }
  {
    // A generation below the retained window demands a full resync.
    const auto doc = parse(dispatcher.dispatch(
        R"({"id": 5, "op": "delta_stream", "from": 0})"));
    ASSERT_TRUE(doc.find("ok")->boolean);
    EXPECT_TRUE(doc.find("result")->find("resync")->boolean);
    EXPECT_TRUE(doc.find("result")->find("deltas")->array.empty());
  }
  {
    // A request naming an older protocol still reaches the replication
    // verbs, and stats keeps reporting the one version the server speaks.
    const auto pin = parse(dispatcher.dispatch(
        R"({"id": 6, "op": "ping", "protocol": 2})"));
    EXPECT_TRUE(pin.find("ok")->boolean);
    const auto sync = parse(dispatcher.dispatch(
        R"({"id": 7, "op": "sync", "protocol": 2})"));
    ASSERT_TRUE(sync.find("ok")->boolean);
    EXPECT_EQ(sync.find("result")->find("generation")->number,
              static_cast<double>(cr.version));
    const auto ds = parse(dispatcher.dispatch(
        R"({"id": 8, "op": "delta_stream", "from": 0})"));
    EXPECT_TRUE(ds.find("ok")->boolean);
    const auto stats =
        parse(dispatcher.dispatch(R"({"id": 9, "op": "stats"})"));
    EXPECT_EQ(stats.find("result")->find("protocol")->number,
              static_cast<double>(serve::kProtocolVersion));
  }
}

/// Protocol 2: the optional "corner" field selects one corner's view on
/// summary/endpoints/whatif; absent means merged; unknown names/ids are
/// "unknown-corner". A request carrying {"protocol": 1} still gets corner
/// selection and sync: no request member selects a protocol.
TEST_F(ServeTest, CornerSelectionAndProtocolNegotiation) {
  core::EngineOptions eopt;
  eopt.enable_hold = true;
  eopt.corners = {core::CornerSpec{"typ", 1.0f, 1.0f},
                  core::CornerSpec{"fast", 0.9f, 0.95f},
                  core::CornerSpec{"slow", 1.12f, 1.05f}};
  core::Engine engine(*sta_, eopt);
  engine.run_forward();
  TimingService service(engine);
  serve::Dispatcher dispatcher(service);

  const auto parse = [](const std::string& line) {
    telemetry::JsonValue doc;
    std::string error;
    EXPECT_TRUE(telemetry::json_parse(line, doc, error)) << error << line;
    return doc;
  };

  {
    // info advertises the protocol version and the corner-name list.
    const auto doc = parse(dispatcher.dispatch(R"({"id": 1, "op": "info"})"));
    ASSERT_TRUE(doc.find("ok")->boolean);
    EXPECT_EQ(doc.find("result")->find("protocol")->number,
              static_cast<double>(serve::kProtocolVersion));
    const telemetry::JsonValue* corners = doc.find("result")->find("corners");
    ASSERT_NE(corners, nullptr);
    ASSERT_EQ(corners->array.size(), 3u);
    EXPECT_EQ(corners->array[0].string, "typ");
    EXPECT_EQ(corners->array[1].string, "fast");
    EXPECT_EQ(corners->array[2].string, "slow");
  }
  {
    // No corner field: the merged cross-corner view.
    const auto doc =
        parse(dispatcher.dispatch(R"({"id": 2, "op": "summary"})"));
    ASSERT_TRUE(doc.find("ok")->boolean);
    const SlackSummary merged = engine.merged_summary(Mode::kSetup);
    EXPECT_EQ(doc.find("result")->find("setup")->find("tns")->number,
              merged.tns);
    EXPECT_EQ(doc.find("result")->find("corner"), nullptr);
  }
  {
    // Corner by name.
    const auto doc = parse(dispatcher.dispatch(
        R"({"id": 3, "op": "summary", "corner": "fast"})"));
    ASSERT_TRUE(doc.find("ok")->boolean);
    EXPECT_EQ(doc.find("result")->find("corner")->string, "fast");
    const SlackSummary s = engine.summary(Mode::kSetup, 1);
    EXPECT_EQ(doc.find("result")->find("setup")->find("tns")->number, s.tns);
    EXPECT_EQ(doc.find("result")->find("setup")->find("wns")->number, s.wns);
    const SlackSummary h = engine.summary(Mode::kHold, 1);
    EXPECT_EQ(doc.find("result")->find("hold")->find("tns")->number, h.tns);
  }
  {
    // Corner by integer id.
    const auto doc = parse(
        dispatcher.dispatch(R"({"id": 4, "op": "summary", "corner": 2})"));
    ASSERT_TRUE(doc.find("ok")->boolean);
    EXPECT_EQ(doc.find("result")->find("corner")->string, "slow");
    EXPECT_EQ(doc.find("result")->find("setup")->find("tns")->number,
              engine.summary(Mode::kSetup, 2).tns);
  }
  {
    // endpoints: the selected corner's slack plane, not the merged one.
    const auto doc = parse(dispatcher.dispatch(
        R"({"id": 5, "op": "endpoints", "ids": [0, 1], "corner": "slow"})"));
    ASSERT_TRUE(doc.find("ok")->boolean);
    const telemetry::JsonValue& eps = *doc.find("result")->find("endpoints");
    ASSERT_EQ(eps.array.size(), 2u);
    const auto slow = engine.endpoint_slacks(2);
    for (const telemetry::JsonValue& ep : eps.array) {
      const auto e = static_cast<std::size_t>(ep.find("ep")->number);
      const telemetry::JsonValue* slack = ep.find("slack");
      if (slack->is_number()) {
        EXPECT_EQ(slack->number, static_cast<double>(slow[e]));
      } else {
        EXPECT_FALSE(std::isfinite(slow[e]));
      }
    }
  }
  {
    // whatif with a corner returns that corner's per-scenario summaries.
    util::Rng rng(17);
    const auto scen = make_scenarios(rng, 1);
    ASSERT_FALSE(scen.empty());
    core::ScenarioBatch direct(engine);
    const auto expect = direct.evaluate({scen[0]});
    std::string req = R"({"id": 6, "op": "whatif", "corner": "fast", )";
    req += R"("scenarios": [{"deltas": [)";
    for (std::size_t i = 0; i < scen[0].size(); ++i) {
      if (i) req += ", ";
      const auto& d = scen[0][i];
      req += "{\"arc\": " + std::to_string(d.arc) + ", \"mu\": [" +
             std::to_string(d.mu[0]) + ", " + std::to_string(d.mu[1]) +
             "], \"sigma\": [" + std::to_string(d.sigma[0]) + ", " +
             std::to_string(d.sigma[1]) + "]}";
    }
    req += "]}]}";
    const auto doc = parse(dispatcher.dispatch(req));
    ASSERT_TRUE(doc.find("ok")->boolean);
    const telemetry::JsonValue& results = *doc.find("result")->find("results");
    ASSERT_EQ(results.array.size(), 1u);
    EXPECT_EQ(results.array[0].find("setup")->find("tns")->number,
              expect[0].setup_by_corner[1].tns);
  }
  {
    // Unknown corner name and out-of-range id → "unknown-corner".
    const auto doc = parse(dispatcher.dispatch(
        R"({"id": 7, "op": "summary", "corner": "ss0p72vn40c"})"));
    EXPECT_FALSE(doc.find("ok")->boolean);
    EXPECT_EQ(doc.find("error")->find("code")->string, "unknown-corner");
    const auto doc2 = parse(
        dispatcher.dispatch(R"({"id": 8, "op": "summary", "corner": 3})"));
    EXPECT_FALSE(doc2.find("ok")->boolean);
    EXPECT_EQ(doc2.find("error")->find("code")->string, "unknown-corner");
  }
  {
    // A request carrying "protocol": 1 pins nothing: it and the requests
    // after it keep corner selection, the corner list, and sync.
    const auto doc = parse(dispatcher.dispatch(
        R"({"id": 9, "op": "summary", "corner": "fast", "protocol": 1})"));
    ASSERT_TRUE(doc.find("ok")->boolean);
    EXPECT_EQ(doc.find("result")->find("corner")->string, "fast");
    EXPECT_EQ(doc.find("result")->find("setup")->find("tns")->number,
              engine.summary(Mode::kSetup, 1).tns);
    const auto after = parse(dispatcher.dispatch(
        R"({"id": 10, "op": "summary", "corner": "slow"})"));
    ASSERT_TRUE(after.find("ok")->boolean);
    EXPECT_EQ(after.find("result")->find("corner")->string, "slow");
    const auto info = parse(dispatcher.dispatch(R"({"id": 11, "op": "info"})"));
    ASSERT_TRUE(info.find("ok")->boolean);
    ASSERT_NE(info.find("result")->find("corners"), nullptr);
    EXPECT_EQ(info.find("result")->find("corners")->array.size(), 3u);
    EXPECT_EQ(info.find("result")->find("protocol")->number,
              static_cast<double>(serve::kProtocolVersion));
    const auto sync = parse(dispatcher.dispatch(
        R"({"id": 12, "op": "sync", "protocol": 1})"));
    ASSERT_TRUE(sync.find("ok")->boolean);
    EXPECT_NE(sync.find("result")->find("snapshot"), nullptr);
  }
}

std::string test_socket_path(const char* tag) {
  return "/tmp/insta_test_serve_" + std::to_string(::getpid()) + "_" + tag +
         ".sock";
}

TEST_F(ServeTest, SocketEndToEndMatchesInProcessExactly) {
  auto engine = make_engine();
  util::Rng rng(31);
  const auto scen = make_scenarios(rng, 2);
  ASSERT_EQ(scen.size(), 2u);
  core::ScenarioBatch direct(*engine);
  const std::vector<core::ScenarioResult> expect = direct.evaluate(scen);

  TimingService service(*engine);
  serve::ServerOptions sopt;
  sopt.unix_path = test_socket_path("e2e");
  serve::Server server(service, sopt);
  server.start();

  serve::Client client(server.endpoint());
  const auto parse = [](const std::string& line) {
    telemetry::JsonValue doc;
    std::string error;
    EXPECT_TRUE(telemetry::json_parse(line, doc, error)) << error << line;
    return doc;
  };

  // summary over the wire is exactly the in-process snapshot.
  {
    const auto doc = parse(client.request(R"({"id": 1, "op": "summary"})"));
    ASSERT_TRUE(doc.find("ok")->boolean);
    const auto snap = service.snapshot();
    EXPECT_EQ(doc.find("result")->find("version")->number,
              static_cast<double>(snap->version));
    EXPECT_EQ(doc.find("result")->find("setup")->find("tns")->number,
              snap->setup.tns);
    EXPECT_EQ(doc.find("result")->find("setup")->find("wns")->number,
              snap->setup.wns);
  }
  // every endpoint slack round-trips bit-exactly (%.17g doubles).
  {
    std::string ids = "[";
    for (std::size_t e = 0; e < graph_->endpoints().size(); ++e) {
      if (e != 0) ids += ", ";
      ids += std::to_string(e);
    }
    ids += "]";
    const auto doc = parse(client.request(
        R"({"id": 2, "op": "endpoints", "ids": )" + ids + "}"));
    ASSERT_TRUE(doc.find("ok")->boolean);
    const telemetry::JsonValue& eps = *doc.find("result")->find("endpoints");
    ASSERT_EQ(eps.array.size(), graph_->endpoints().size());
    const auto snap = service.snapshot();
    for (std::size_t e = 0; e < eps.array.size(); ++e) {
      const telemetry::JsonValue* slack = eps.array[e].find("slack");
      const double local = static_cast<double>(snap->slack[e]);
      if (std::isfinite(local)) {
        EXPECT_EQ(slack->number, local) << "endpoint " << e;
      } else {
        EXPECT_EQ(slack->type, telemetry::JsonValue::Type::kNull);
      }
    }
  }
  // whatif over the wire equals direct ScenarioBatch evaluation.
  {
    std::string body = R"({"id": 3, "op": "whatif", "scenarios": [)";
    for (std::size_t i = 0; i < scen.size(); ++i) {
      if (i != 0) body += ", ";
      body += R"({"deltas": [)";
      for (std::size_t j = 0; j < scen[i].size(); ++j) {
        if (j != 0) body += ", ";
        const ArcDelta& d = scen[i][j];
        body += "{\"arc\": " + std::to_string(d.arc) + ", \"mu\": [" +
                telemetry::json_number(d.mu[0]) + ", " +
                telemetry::json_number(d.mu[1]) + "], \"sigma\": [" +
                telemetry::json_number(d.sigma[0]) + ", " +
                telemetry::json_number(d.sigma[1]) + "]}";
      }
      body += "]}";
    }
    body += "]}";
    const auto doc = parse(client.request(body));
    ASSERT_TRUE(doc.find("ok")->boolean) << client.request(body);
    const telemetry::JsonValue& results = *doc.find("result")->find("results");
    ASSERT_EQ(results.array.size(), expect.size());
    for (std::size_t i = 0; i < expect.size(); ++i) {
      const telemetry::JsonValue* setup = results.array[i].find("setup");
      ASSERT_NE(setup, nullptr);
      EXPECT_EQ(setup->find("tns")->number, expect[i].setup.tns)
          << "scenario " << i;
      EXPECT_EQ(setup->find("wns")->number, expect[i].setup.wns)
          << "scenario " << i;
      EXPECT_EQ(setup->find("violations")->number,
                static_cast<double>(expect[i].setup.violations))
          << "scenario " << i;
    }
  }
  // A malformed line gets a structured reply, not a dropped connection.
  {
    const auto doc = parse(client.request("{oops"));
    EXPECT_FALSE(doc.find("ok")->boolean);
    EXPECT_EQ(doc.find("error")->find("code")->string, "bad-request");
  }
  // shutdown op unblocks wait().
  {
    const auto doc = parse(client.request(R"({"id": 9, "op": "shutdown"})"));
    EXPECT_TRUE(doc.find("ok")->boolean);
  }
  server.wait();
  EXPECT_TRUE(server.shutdown_requested());
  server.stop();
}

TEST_F(ServeTest, ServerShedsConnectionsBeyondTheCap) {
  auto engine = make_engine();
  TimingService service(*engine);
  serve::ServerOptions sopt;
  sopt.unix_path = test_socket_path("cap");
  sopt.max_connections = 1;
  serve::Server server(service, sopt);
  server.start();

  serve::Client first(server.endpoint());
  // A reply proves the first connection's handler thread is registered.
  telemetry::JsonValue doc;
  std::string error;
  ASSERT_TRUE(telemetry::json_parse(
      first.request(R"({"id": 1, "op": "ping"})"), doc, error));

  serve::Client second(server.endpoint());
  const std::string line = second.recv_line();
  ASSERT_TRUE(telemetry::json_parse(line, doc, error)) << line;
  EXPECT_FALSE(doc.find("ok")->boolean);
  EXPECT_EQ(doc.find("error")->find("code")->string, "overloaded");

  server.stop();
}

TEST(ServeClient, RejectsPortsOutsideOneTo65535NamingTheEndpoint) {
  for (const std::string endpoint :
       {"127.0.0.1:70000", "127.0.0.1:abc", "127.0.0.1:", "127.0.0.1:0",
        "127.0.0.1:-1", "127.0.0.1"}) {
    try {
      serve::Client client(endpoint);
      ADD_FAILURE() << endpoint << " was accepted";
    } catch (const util::CheckError& e) {
      EXPECT_NE(std::string(e.what()).find(endpoint), std::string::npos)
          << e.what();
    }
  }
}

TEST(ServeClient, ThrowsOnAMissingSocketPath) {
  EXPECT_THROW(serve::Client("unix:" + test_socket_path("absent")),
               util::CheckError);
}

TEST_F(ServeTest, ClientThrowsWhenTheServerClosesBeforeReplying) {
  auto engine = make_engine();
  TimingService service(*engine);
  serve::ServerOptions sopt;
  sopt.unix_path = test_socket_path("closing");
  serve::Server server(service, sopt);
  server.start();

  serve::Client client(server.endpoint());
  // A reply proves the connection's handler thread is registered, so
  // stop() shuts this connection down while the client awaits a reply.
  ASSERT_TRUE(serve::reply_ok(
      serve::parse_reply(client.request(R"({"id": 1, "op": "ping"})"))));
  std::thread stopper([&server] { server.stop(); });
  EXPECT_THROW((void)client.recv_line(), util::CheckError);
  stopper.join();
  // Sending to the closed peer throws instead of raising SIGPIPE.
  EXPECT_THROW((void)client.request(R"({"id": 2, "op": "ping"})"),
               util::CheckError);
}

// ---- observability: request ids, server_us, introspection ops --------------

/// Parses one reply line into a JSON DOM (shared by the tests below).
telemetry::JsonValue parse_reply_line(const std::string& line) {
  telemetry::JsonValue doc;
  std::string error;
  EXPECT_TRUE(telemetry::json_parse(line, doc, error)) << error << " " << line;
  return doc;
}

/// A wire what-if request line carrying `scen` (delta means only);
/// `members` is spliced in after the id.
std::string whatif_line(std::int64_t id,
                        const std::vector<std::vector<ArcDelta>>& scen,
                        const std::string& members = "") {
  std::string line = "{\"id\": " + std::to_string(id) + members +
                     ", \"op\": \"whatif\", \"scenarios\": [";
  for (std::size_t i = 0; i < scen.size(); ++i) {
    line += i == 0 ? "{\"deltas\": [" : ", {\"deltas\": [";
    for (std::size_t j = 0; j < scen[i].size(); ++j) {
      if (j != 0) line += ", ";
      line += "{\"arc\": " + std::to_string(scen[i][j].arc) + ", \"mu\": [" +
              telemetry::json_number(scen[i][j].mu[0]) + ", " +
              telemetry::json_number(scen[i][j].mu[1]) + "]}";
    }
    line += "]}";
  }
  return line + "]}";
}

/// Asserts the reply carries a server_us breakdown whose parts are
/// non-negative and never sum to more than the total.
void expect_server_us(const telemetry::JsonValue& doc) {
  const telemetry::JsonValue* su = doc.find("server_us");
  ASSERT_NE(su, nullptr) << "reply lacks server_us";
  double parts = 0.0;
  for (const char* key : {"queue", "batch", "eval", "serialize"}) {
    const telemetry::JsonValue* v = su->find(key);
    ASSERT_NE(v, nullptr) << key;
    EXPECT_GE(v->number, 0.0) << key;
    parts += v->number;
  }
  const telemetry::JsonValue* total = su->find("total");
  ASSERT_NE(total, nullptr);
  EXPECT_GE(total->number, 0.0);
  EXPECT_LE(parts, total->number);
}

TEST_F(ServeTest, ReplyIdsRoundTripAndServerUsIsSelfConsistent) {
  auto engine = make_engine();
  TimingService service(*engine);
  serve::Dispatcher dispatcher(service);

  // A client-numbered request echoes its id verbatim.
  {
    const auto doc =
        parse_reply_line(dispatcher.dispatch(R"({"id": 41, "op": "ping"})"));
    EXPECT_EQ(doc.find("id")->number, 41.0);
    expect_server_us(doc);
  }
  // Requests without an id (or id 0) get fresh positive server-assigned
  // ids, distinct across requests.
  {
    const auto a = parse_reply_line(dispatcher.dispatch(R"({"op": "ping"})"));
    const auto b =
        parse_reply_line(dispatcher.dispatch(R"({"id": 0, "op": "ping"})"));
    EXPECT_GT(a.find("id")->number, 0.0);
    EXPECT_GT(b.find("id")->number, a.find("id")->number);
  }
  // Error replies are timed too — a malformed line still gets an id and a
  // breakdown.
  {
    const auto doc = parse_reply_line(dispatcher.dispatch("{broken"));
    EXPECT_FALSE(doc.find("ok")->boolean);
    EXPECT_GT(doc.find("id")->number, 0.0);
    expect_server_us(doc);
  }
  // A whatif reply fills the batching-pipeline parts; queue/batch/eval and
  // serialize must stay within the measured total.
  {
    util::Rng rng(43);
    const auto scen = make_scenarios(rng, 1);
    ASSERT_EQ(scen.size(), 1u);
    std::string body =
        R"({"id": 7, "op": "whatif", "scenarios": [{"deltas": [)";
    for (std::size_t j = 0; j < scen[0].size(); ++j) {
      if (j != 0) body += ", ";
      body += "{\"arc\": " + std::to_string(scen[0][j].arc) + ", \"mu\": [" +
              telemetry::json_number(scen[0][j].mu[0]) + ", " +
              telemetry::json_number(scen[0][j].mu[1]) + "]}";
    }
    body += "]}]}";
    const auto doc = parse_reply_line(dispatcher.dispatch(body));
    ASSERT_TRUE(doc.find("ok")->boolean);
    EXPECT_EQ(doc.find("id")->number, 7.0);
    expect_server_us(doc);
  }
}

TEST_F(ServeTest, TraceAndFlightrecOpsReturnValidDocuments) {
  auto engine = make_engine();
  TimingService service(*engine);
  serve::Dispatcher dispatcher(service);

  // trace: an introspection doc with the enablement flag and a spans list.
  {
    const auto doc =
        parse_reply_line(dispatcher.dispatch(R"({"id": 1, "op": "trace"})"));
    ASSERT_TRUE(doc.find("ok")->boolean);
    const telemetry::JsonValue* result = doc.find("result");
    ASSERT_NE(result, nullptr);
    ASSERT_NE(result->find("enabled"), nullptr);
    ASSERT_NE(result->find("spans"), nullptr);
    EXPECT_TRUE(result->find("spans")->is_array());
    EXPECT_GE(result->find("dropped")->number, 0.0);
  }
  // flightrec: the recorder's own JSON schema, embedded as the result. The
  // dispatcher records an admit event per request, so after the trace op
  // above the ring cannot be empty (in telemetry-on builds).
  {
    const auto doc = parse_reply_line(
        dispatcher.dispatch(R"({"id": 2, "op": "flightrec"})"));
    ASSERT_TRUE(doc.find("ok")->boolean);
    const telemetry::JsonValue* result = doc.find("result");
    ASSERT_NE(result, nullptr);
    ASSERT_NE(result->find("total"), nullptr);
    ASSERT_NE(result->find("events"), nullptr);
    EXPECT_TRUE(result->find("events")->is_array());
    EXPECT_GE(result->find("total")->number, 1.0);
    ASSERT_FALSE(result->find("events")->array.empty());
    const telemetry::JsonValue& ev = result->find("events")->array.back();
    EXPECT_NE(ev.find("ts_us"), nullptr);
    EXPECT_NE(ev.find("type"), nullptr);
    EXPECT_NE(ev.find("id"), nullptr);
  }
  // max caps the number of events returned.
  {
    const auto doc = parse_reply_line(
        dispatcher.dispatch(R"({"id": 3, "op": "flightrec", "max": 1})"));
    ASSERT_TRUE(doc.find("ok")->boolean);
    EXPECT_LE(doc.find("result")->find("events")->array.size(), 1u);
  }
}

TEST_F(ServeTest, StatsOpReportsQueueDepthSessionsAndLatency) {
  auto engine = make_engine();
  TimingService service(*engine);
  serve::SessionId sid = -1;
  ASSERT_TRUE(service.open_session(sid).ok());
  serve::Dispatcher dispatcher(service);

  const auto doc =
      parse_reply_line(dispatcher.dispatch(R"({"id": 1, "op": "stats"})"));
  ASSERT_TRUE(doc.find("ok")->boolean);
  const telemetry::JsonValue* result = doc.find("result");
  ASSERT_NE(result, nullptr);
  EXPECT_EQ(result->find("queue_depth")->number, 0.0);
  EXPECT_GE(result->find("open_sessions")->number, 1.0);
  const telemetry::JsonValue* lat = result->find("latency_us");
  ASSERT_NE(lat, nullptr);
  for (const char* key : {"count", "p50", "p95", "p99", "max"}) {
    ASSERT_NE(lat->find(key), nullptr) << key;
    EXPECT_GE(lat->find(key)->number, 0.0) << key;
  }
  EXPECT_TRUE(service.close_session(sid).ok());
}

TEST_F(ServeTest, SlowRequestLogFiresAtThresholdZero) {
  auto engine = make_engine();
  TimingService service(*engine);
  serve::ServerOptions server_options;
  server_options.slow_us = 0;
  serve::Dispatcher dispatcher(service, &server_options);

  auto capture = std::make_shared<util::CaptureLogSink>();
  std::shared_ptr<util::LogSink> previous = util::set_log_sink(capture);
  const util::LogLevel old_level = util::log_level();
  util::set_log_level(util::LogLevel::kWarn);

  (void)dispatcher.dispatch(R"({"id": 5, "op": "ping"})");

  util::set_log_level(old_level);
  util::set_log_sink(std::move(previous));

  bool found = false;
  for (const auto& [level, line] : capture->lines()) {
    if (line.find("slow request") != std::string::npos &&
        line.find("id=5") != std::string::npos &&
        line.find("op=ping") != std::string::npos) {
      found = true;
    }
  }
  EXPECT_TRUE(found);
}

/// The acceptance criterion of the tracing tentpole: a concurrent run's
/// Chrome trace contains a batch-leader span whose flow steps parent-link
/// at least two distinct request ids into it.
TEST_F(ServeTest, BatchLeaderTraceLinksMultipleRequestIds) {
  auto engine = make_engine();
  util::Rng rng(47);
  const auto scen = make_scenarios(rng, 1);
  ASSERT_EQ(scen.size(), 1u);

  serve::ServiceOptions opt;
  // A long window keeps the first request's leader collecting while the
  // second joins the same batch (max_batch far above the queued count).
  opt.batch_window_us = 300'000;
  opt.max_batch = 64;
  opt.max_queue = 64;
  TimingService service(*engine, opt);

  telemetry::Tracer& tracer = telemetry::Tracer::global();
  const bool was_enabled = tracer.enabled();
  tracer.clear();
  tracer.set_enabled(true);

  serve::SessionId a = -1, b = -1;
  ASSERT_TRUE(service.open_session(a).ok());
  ASSERT_TRUE(service.open_session(b).ok());
  serve::Error first_err;
  serve::RequestRecord first_record{.id = 101};
  TimingService::WhatifReply first_reply;
  first_reply.record = &first_record;
  std::thread first([&] {
    first_err = service.whatif(a, scen, first_reply);
  });
  for (int spin = 0; spin < 2000; ++spin) {
    if (service.stats().whatif_requests >= 1) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  ASSERT_EQ(service.stats().whatif_requests, 1u);
  serve::RequestRecord second_record{.id = 102};
  TimingService::WhatifReply second_reply;
  second_reply.record = &second_record;
  const serve::Error second_err = service.whatif(b, scen, second_reply);
  first.join();
  ASSERT_TRUE(first_err.ok()) << first_err.message;
  ASSERT_TRUE(second_err.ok()) << second_err.message;
  EXPECT_EQ(first_reply.record->id, 101u);
  EXPECT_EQ(second_reply.record->id, 102u);
  // Both were served by one ScenarioBatch evaluation.
  EXPECT_EQ(service.stats().batches, 1u);

  const std::string trace = tracer.chrome_trace_json();
  tracer.set_enabled(was_enabled);

  telemetry::JsonValue doc;
  std::string error;
  ASSERT_TRUE(telemetry::json_parse(trace, doc, error)) << error;
  const telemetry::JsonValue* events = doc.find("traceEvents");
  ASSERT_NE(events, nullptr);
  bool saw_batch_span = false;
  std::set<std::uint64_t> step_ids;
  for (const telemetry::JsonValue& ev : events->array) {
    const telemetry::JsonValue* ph = ev.find("ph");
    const telemetry::JsonValue* name = ev.find("name");
    if (ph == nullptr || name == nullptr) continue;
    if (ph->string == "B" && name->string == "serve.batch") {
      saw_batch_span = true;
    }
    if (ph->string == "t" && name->string == "req") {
      step_ids.insert(static_cast<std::uint64_t>(ev.find("id")->number));
    }
  }
  EXPECT_TRUE(saw_batch_span);
  EXPECT_TRUE(step_ids.count(101));
  EXPECT_TRUE(step_ids.count(102));
  EXPECT_GE(step_ids.size(), 2u);

  // The flight recorder saw the full lifecycle of both requests.
  bool batched_101 = false, batched_102 = false;
  for (const telemetry::FlightEvent& ev :
       telemetry::FlightRecorder::global().recent()) {
    if (ev.type == telemetry::FlightEventType::kBatch) {
      if (ev.request_id == 101) batched_101 = true;
      if (ev.request_id == 102) batched_102 = true;
    }
  }
  EXPECT_TRUE(batched_101);
  EXPECT_TRUE(batched_102);
}

/// The shed-accounting fix: rejected replies still count into the
/// serve.whatif_latency_us histogram and leave a shed flight event. The
/// histogram is observed by the Dispatcher, so the request goes over it.
TEST_F(ServeTest, ShedRepliesAreObservedInLatencyHistogramAndRecorder) {
  auto engine = make_engine();
  serve::ServiceOptions opt;
  opt.max_queue = 2;
  opt.max_batch = 2;
  TimingService service(*engine, opt);
  serve::SessionId sid = -1;
  ASSERT_TRUE(service.open_session(sid).ok());
  serve::Dispatcher dispatcher(service);

  const auto latency_count = [] {
    const telemetry::MetricsSnapshot snap =
        telemetry::MetricsRegistry::global().snapshot();
    const auto it = snap.histograms.find("serve.whatif_latency_us");
    return it == snap.histograms.end() ? std::uint64_t{0} : it->second.count;
  };
  const std::uint64_t count_before = latency_count();

  // Three single-delta scenarios can never fit the 2-deep queue: a
  // structural shed, delivered synchronously.
  util::Rng rng(53);
  const auto scen = make_scenarios(rng, 3);
  ASSERT_EQ(scen.size(), 3u);
  const auto reply = parse_reply_line(dispatcher.dispatch(whatif_line(
      777, scen, ", \"session\": " + std::to_string(sid))));
  ASSERT_FALSE(reply.find("ok")->boolean);
  ASSERT_EQ(reply.find("error")->find("code")->string,
            serve::error_code_name(ErrorCode::kOverloaded));

  EXPECT_EQ(latency_count(), count_before + 1);
  bool shed_777 = false;
  for (const telemetry::FlightEvent& ev :
       telemetry::FlightRecorder::global().recent()) {
    if (ev.type == telemetry::FlightEventType::kShed && ev.request_id == 777) {
      shed_777 = true;
    }
  }
  EXPECT_TRUE(shed_777);
}

/// stats latency_us is the distribution of what-if server_us.total: one
/// observation per what-if wire request whatever its outcome, none for
/// any other op.
TEST_F(ServeTest, StatsLatencyCountsEveryWhatifWireRequestOnce) {
  auto engine = make_engine();
  serve::ServiceOptions opt;
  opt.max_queue = 2;
  opt.max_batch = 2;
  TimingService service(*engine, opt);
  serve::Dispatcher dispatcher(service);
  const auto latency_count = [&dispatcher] {
    const auto doc = parse_reply_line(
        dispatcher.dispatch(R"({"op": "stats"})"));
    return doc.find("result")->find("latency_us")->find("count")->number;
  };
  const auto error_code = [](const telemetry::JsonValue& doc) {
    const telemetry::JsonValue* err = doc.find("error");
    return err == nullptr ? std::string("ok") : err->find("code")->string;
  };
  util::Rng rng(71);
  const auto scen = make_scenarios(rng, 3);
  ASSERT_EQ(scen.size(), 3u);
  std::vector<ArcDelta> bad = scen[0];
  bad[0].arc = static_cast<timing::ArcId>(graph_->num_arcs() + 5);

  double count = latency_count();
  const auto expect_observed = [&](const std::string& line,
                                   const std::string& code, double rise) {
    const auto doc = parse_reply_line(dispatcher.dispatch(line));
    EXPECT_EQ(error_code(doc), code) << line;
    const double now = latency_count();
    EXPECT_EQ(now, count + rise) << line;
    count = now;
  };
  expect_observed(whatif_line(8001, {scen[0]}), "ok", 1);  // served
  expect_observed(whatif_line(8002, {scen[0]}), "ok", 1);  // cache hit
  EXPECT_EQ(service.cache_stats().hits, 1u);
  expect_observed(whatif_line(8003, scen), "overloaded", 1);   // shed
  expect_observed(whatif_line(8004, {bad}), "bad-request", 1);  // rejected
  expect_observed(R"({"id": 8005, "op": "summary"})", "ok", 0);
}

/// Each lifecycle instant is read from the clock once: the reply's
/// server_us is computed from the very stamps its flight events carry.
TEST_F(ServeTest, ServerUsIsDerivedFromTheFlightEventStamps) {
  auto engine = make_engine();
  serve::ServiceOptions opt;
  opt.whatif_cache_entries = 0;  // every what-if crosses the batcher
  TimingService service(*engine, opt);
  serve::Dispatcher dispatcher(service);
  util::Rng rng(67);
  const auto scen = make_scenarios(rng, 1);
  ASSERT_EQ(scen.size(), 1u);

  auto& fr = telemetry::FlightRecorder::global();
  fr.clear();
  // Several rounds: a second clock read per instant drifts by a fraction
  // of a microsecond, which a single request could hide by rounding.
  constexpr std::int64_t kRounds = 16;
  std::map<std::uint64_t, telemetry::JsonValue> server_us;
  for (std::int64_t i = 0; i < kRounds; ++i) {
    const std::int64_t id = 9000 + 2 * i;  // even: what-if, odd: summary
    const std::string summary =
        R"({"id": )" + std::to_string(id + 1) + R"(, "op": "summary"})";
    for (const std::string& line : {whatif_line(id, scen), summary}) {
      const auto doc = parse_reply_line(dispatcher.dispatch(line));
      ASSERT_TRUE(doc.find("ok")->boolean) << line;
      server_us[static_cast<std::uint64_t>(doc.find("id")->number)] =
          *doc.find("server_us");
    }
  }

  using telemetry::FlightEventType;
  std::map<std::uint64_t, std::map<FlightEventType, std::uint64_t>> ts;
  for (const telemetry::FlightEvent& ev : fr.recent()) {
    ts[ev.request_id][ev.type] = ev.ts_ns;
  }
  const auto us = [](std::uint64_t from, std::uint64_t to) {
    return static_cast<double>((to - from) / 1000);
  };
  for (const auto& [id, su] : server_us) {
    std::map<FlightEventType, std::uint64_t>& t = ts[id];
    ASSERT_EQ(t.count(FlightEventType::kAdmit), 1u) << id;
    ASSERT_EQ(t.count(FlightEventType::kReply), 1u) << id;
    EXPECT_EQ(su.find("total")->number,
              us(t[FlightEventType::kAdmit], t[FlightEventType::kReply]))
        << id;
    if (id % 2 == 0) {
      ASSERT_EQ(t.count(FlightEventType::kEnqueue), 1u) << id;
      ASSERT_EQ(t.count(FlightEventType::kBatch), 1u) << id;
      EXPECT_EQ(su.find("queue")->number,
                us(t[FlightEventType::kEnqueue], t[FlightEventType::kBatch]))
          << id;
    }
  }
}

/// Every wire request leaves exactly one admit and one reply event, from
/// the dispatcher; the service adds only the what-if pipeline stages.
TEST_F(ServeTest, DispatcherRecordsOneAdmitAndOneReplyPerRequest) {
  auto engine = make_engine();
  TimingService service(*engine);
  serve::Dispatcher dispatcher(service);
  util::Rng rng(61);
  const auto scen = make_scenarios(rng, 1);
  ASSERT_FALSE(scen.empty());
  ASSERT_FALSE(scen[0].empty());
  const ArcDelta& d = scen[0][0];

  auto& fr = telemetry::FlightRecorder::global();
  fr.clear();
  const auto summary = parse_reply_line(
      dispatcher.dispatch(R"({"id": 5001, "op": "summary"})"));
  ASSERT_TRUE(summary.find("ok")->boolean);
  const auto whatif = parse_reply_line(dispatcher.dispatch(
      R"({"id": 5002, "op": "whatif", "scenarios": [{"deltas": [{"arc": )" +
      std::to_string(d.arc) + R"(, "mu": [)" +
      telemetry::json_number(d.mu[0]) + ", " +
      telemetry::json_number(d.mu[1]) + "]}]}]}"));
  ASSERT_TRUE(whatif.find("ok")->boolean);
  const auto bad = parse_reply_line(dispatcher.dispatch(
      R"({"id": 5003, "op": "endpoints", "ids": [-1]})"));
  ASSERT_FALSE(bad.find("ok")->boolean);

  std::map<std::uint64_t, std::map<telemetry::FlightEventType, int>> count;
  std::map<std::uint64_t, std::uint32_t> reply_detail;
  for (const telemetry::FlightEvent& ev : fr.recent()) {
    ++count[ev.request_id][ev.type];
    if (ev.type == telemetry::FlightEventType::kReply) {
      reply_detail[ev.request_id] = ev.detail;
    }
  }
  for (const std::uint64_t id : {5001u, 5002u, 5003u}) {
    EXPECT_EQ(count[id][telemetry::FlightEventType::kAdmit], 1) << id;
    EXPECT_EQ(count[id][telemetry::FlightEventType::kReply], 1) << id;
  }
  EXPECT_EQ(count[5001].size(), 2u);
  EXPECT_EQ(count[5002][telemetry::FlightEventType::kEnqueue], 1);
  EXPECT_EQ(count[5002][telemetry::FlightEventType::kEval], 1);
  EXPECT_EQ(reply_detail[5001], 0u);
  EXPECT_EQ(reply_detail[5002], 0u);
  EXPECT_EQ(reply_detail[5003],
            static_cast<std::uint32_t>(ErrorCode::kBadRequest));
}

TEST_F(ServeTest, EngineGenerationCountsForwardPasses) {
  auto engine = make_engine();
  const std::uint64_t g0 = engine->generation();
  engine->run_forward();
  EXPECT_EQ(engine->generation(), g0 + 1);
  util::Rng rng(41);
  const auto scen = make_scenarios(rng, 1);
  ASSERT_EQ(scen.size(), 1u);
  engine->annotate(scen[0]);
  engine->run_forward_incremental();
  EXPECT_EQ(engine->generation(), g0 + 2);
}

}  // namespace
}  // namespace insta
