// Tests of the replication subsystem: the snapshot/delta binary codec
// (round-trip properties, corruption/truncation rejection), the delta-set
// canonicalizer, the commit-delta log, the what-if cache, engine state
// export/import (including merged_summary cache correctness across
// rollback and generation-number collisions), service-level delta
// application equivalence, and socket end-to-end replication with
// restart-without-resync catch-up.

#include <gtest/gtest.h>

#include <unistd.h>

#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "core/engine.hpp"
#include "engine_test_peer.hpp"
#include "gen/changelist.hpp"
#include "gen/logic_block.hpp"
#include "gen/presets.hpp"
#include "gen/tune.hpp"
#include "ref/golden_sta.hpp"
#include "replica/codec.hpp"
#include "replica/delta_log.hpp"
#include "replica/replica.hpp"
#include "replica/whatif_cache.hpp"
#include "serve/client.hpp"
#include "serve/server.hpp"
#include "serve/service.hpp"
#include "timing/delay_calc.hpp"
#include "timing/delta_canon.hpp"
#include "util/check.hpp"
#include "util/rng.hpp"

namespace insta {
namespace {

using core::CornerSpec;
using core::EngineState;
using core::Mode;
using replica::CommitRecord;
using timing::ArcDelta;

// ---- fixture ---------------------------------------------------------------

struct Fixture {
  gen::GeneratedDesign gd;
  std::unique_ptr<timing::TimingGraph> graph;
  std::unique_ptr<timing::DelayCalculator> calc;
  timing::ArcDelays delays;
  std::unique_ptr<ref::GoldenSta> sta;

  explicit Fixture(std::uint64_t seed, bool hold = false)
      : Fixture(gen::tiny_spec(seed), hold) {}

  Fixture(const gen::LogicBlockSpec& spec, bool hold) {
    gd = gen::build_logic_block(spec);
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

  [[nodiscard]] std::unique_ptr<core::Engine> make_engine(
      std::vector<CornerSpec> corners = {}, bool hold = false) const {
    core::EngineOptions opt;
    opt.top_k = 8;
    opt.enable_hold = hold;
    opt.corners = std::move(corners);
    auto e = std::make_unique<core::Engine>(*sta, opt);
    e->run_forward();
    return e;
  }

  [[nodiscard]] std::vector<std::vector<ArcDelta>> make_scenarios(
      util::Rng& rng, std::size_t n) const {
    const auto changes = gen::random_changelist(*gd.design, *graph, rng,
                                                static_cast<int>(n));
    std::vector<std::vector<ArcDelta>> scen;
    for (const auto& ch : changes) {
      scen.push_back(calc->estimate_eco(ch.cell, ch.new_libcell));
    }
    for (std::size_t i = 0; scen.size() < n && !scen.empty(); ++i) {
      scen.push_back(scen[i % changes.size()]);
    }
    return scen;
  }
};

std::vector<CornerSpec> corner_set(std::size_t c) {
  std::vector<CornerSpec> v{CornerSpec{"typ", 1.0f, 1.0f}};
  if (c >= 2) v.push_back(CornerSpec{"fast", 0.9f, 0.95f});
  if (c >= 4) {
    v.push_back(CornerSpec{"slow", 1.12f, 1.05f});
    v.push_back(CornerSpec{"cold", 1.05f, 0.9f});
  }
  v.resize(c > 0 ? c : 1, CornerSpec{"typ", 1.0f, 1.0f});
  return v;
}

/// Commits `n` edits through the Transaction path (the writer-side flow),
/// returning the applied sets of the last commit.
void commit_edits(core::Engine& engine, Fixture& f, util::Rng& rng, int n) {
  for (int i = 0; i < n; ++i) {
    const auto scen = f.make_scenarios(rng, 1);
    ASSERT_FALSE(scen.empty());
    core::Engine::Transaction tx = engine.begin_edit();
    tx.annotate(scen[0]);
    engine.run_forward_incremental();
    tx.commit();
  }
}

template <typename T>
::testing::AssertionResult same_bytes(const std::vector<T>& a,
                                      const std::vector<T>& b,
                                      const char* what) {
  if (a.size() != b.size()) {
    return ::testing::AssertionFailure()
           << what << ": size " << a.size() << " vs " << b.size();
  }
  if (!a.empty() &&
      std::memcmp(a.data(), b.data(), a.size() * sizeof(T)) != 0) {
    return ::testing::AssertionFailure() << what << ": bytes differ";
  }
  return ::testing::AssertionSuccess();
}

/// Byte-exact equality of two engine-state images, field by field.
void expect_state_eq(const EngineState& a, const EngineState& b) {
  EXPECT_EQ(a.generation, b.generation);
  EXPECT_EQ(a.num_corners, b.num_corners);
  EXPECT_EQ(a.num_pins, b.num_pins);
  EXPECT_EQ(a.num_slots, b.num_slots);
  EXPECT_EQ(a.num_sps, b.num_sps);
  EXPECT_EQ(a.num_eps, b.num_eps);
  EXPECT_EQ(a.num_arcs, b.num_arcs);
  EXPECT_EQ(a.top_k, b.top_k);
  EXPECT_EQ(a.tk_stride, b.tk_stride);
  EXPECT_EQ(a.enable_hold, b.enable_hold);
  ASSERT_EQ(a.corners.size(), b.corners.size());
  for (std::size_t c = 0; c < a.corners.size(); ++c) {
    EXPECT_EQ(a.corners[c].name, b.corners[c].name);
    EXPECT_EQ(a.corners[c].delay_scale, b.corners[c].delay_scale);
    EXPECT_EQ(a.corners[c].sigma_scale, b.corners[c].sigma_scale);
  }
  for (const int rf : {0, 1}) {
    const auto i = static_cast<std::size_t>(rf);
    EXPECT_TRUE(same_bytes(a.amu[i], b.amu[i], "amu"));
    EXPECT_TRUE(same_bytes(a.asig[i], b.asig[i], "asig"));
    EXPECT_TRUE(same_bytes(a.sp_mu[i], b.sp_mu[i], "sp_mu"));
    EXPECT_TRUE(same_bytes(a.sp_sig[i], b.sp_sig[i], "sp_sig"));
  }
  EXPECT_TRUE(same_bytes(a.tk_arr, b.tk_arr, "tk_arr"));
  EXPECT_TRUE(same_bytes(a.tk_mu, b.tk_mu, "tk_mu"));
  EXPECT_TRUE(same_bytes(a.tk_sig, b.tk_sig, "tk_sig"));
  EXPECT_TRUE(same_bytes(a.tk_sp, b.tk_sp, "tk_sp"));
  EXPECT_TRUE(same_bytes(a.tk_cnt, b.tk_cnt, "tk_cnt"));
  EXPECT_TRUE(same_bytes(a.tk2_arr, b.tk2_arr, "tk2_arr"));
  EXPECT_TRUE(same_bytes(a.tk2_mu, b.tk2_mu, "tk2_mu"));
  EXPECT_TRUE(same_bytes(a.tk2_sig, b.tk2_sig, "tk2_sig"));
  EXPECT_TRUE(same_bytes(a.tk2_sp, b.tk2_sp, "tk2_sp"));
  EXPECT_TRUE(same_bytes(a.tk2_cnt, b.tk2_cnt, "tk2_cnt"));
  EXPECT_TRUE(same_bytes(a.slack, b.slack, "slack"));
  EXPECT_TRUE(same_bytes(a.hold_slack, b.hold_slack, "hold_slack"));
  EXPECT_TRUE(same_bytes(a.ep_worst_rf, b.ep_worst_rf, "ep_worst_rf"));
  EXPECT_TRUE(same_bytes(a.ep_base_req, b.ep_base_req, "ep_base_req"));
  EXPECT_TRUE(same_bytes(a.ep_hold_base, b.ep_hold_base, "ep_hold_base"));
  EXPECT_TRUE(same_bytes(a.tns, b.tns, "tns"));
  EXPECT_TRUE(same_bytes(a.nviol, b.nviol, "nviol"));
  EXPECT_TRUE(same_bytes(a.ths, b.ths, "ths"));
  EXPECT_TRUE(same_bytes(a.nhold_viol, b.nhold_viol, "nhold_viol"));
  EXPECT_TRUE(same_bytes(a.wns, b.wns, "wns"));
  EXPECT_TRUE(same_bytes(a.wns_any, b.wns_any, "wns_any"));
  EXPECT_TRUE(same_bytes(a.wns_valid, b.wns_valid, "wns_valid"));
  EXPECT_TRUE(same_bytes(a.whs, b.whs, "whs"));
  EXPECT_TRUE(same_bytes(a.whs_any, b.whs_any, "whs_any"));
  EXPECT_TRUE(same_bytes(a.whs_valid, b.whs_valid, "whs_valid"));
}

// ---- base64 ------------------------------------------------------------------

TEST(Base64, RoundTripsArbitraryBytesAtEveryLengthResidue) {
  util::Rng rng(101);
  for (std::size_t len = 0; len < 70; ++len) {
    std::string raw(len, '\0');
    for (char& ch : raw) ch = static_cast<char>(rng() & 0xff);
    const std::string b64 = replica::base64_encode(raw);
    std::string back;
    ASSERT_TRUE(replica::base64_decode(b64, back)) << "len " << len;
    EXPECT_EQ(back, raw) << "len " << len;
  }
}

TEST(Base64, RejectsMalformedInput) {
  std::string out;
  EXPECT_FALSE(replica::base64_decode("abc", out));      // bad length
  EXPECT_FALSE(replica::base64_decode("ab==ab==", out)); // inner padding
  EXPECT_FALSE(replica::base64_decode("a#cd", out));     // bad alphabet
  EXPECT_FALSE(replica::base64_decode("=abc", out));     // leading padding
  EXPECT_TRUE(replica::base64_decode("", out));
  EXPECT_TRUE(out.empty());
}

// ---- delta-set canonicalization ----------------------------------------------

TEST(DeltaCanon, SortsByArcAndMergesDuplicatesLastWins) {
  const std::vector<ArcDelta> in = {
      {7, {1.0, 1.0}, {0.1, 0.1}},
      {3, {2.0, 2.0}, {0.0, 0.0}},
      {7, {9.0, 9.5}, {0.7, 0.7}},  // shadows the first arc-7 delta
  };
  std::vector<timing::ArcId> dups;
  const std::vector<ArcDelta> canon = timing::canonicalize_deltas(in, &dups);
  ASSERT_EQ(canon.size(), 2u);
  EXPECT_EQ(canon[0].arc, 3);
  EXPECT_EQ(canon[1].arc, 7);
  EXPECT_EQ(canon[1].mu[0], 9.0);   // last write won
  EXPECT_EQ(canon[1].sigma[1], 0.7);
  ASSERT_EQ(dups.size(), 1u);
  EXPECT_EQ(dups[0], 7);
}

TEST(DeltaCanon, HashIsOrderInvariantAndValueSensitive) {
  const std::vector<ArcDelta> a = {{1, {1.0, 1.0}, {0.0, 0.0}},
                                   {5, {2.0, 2.0}, {0.3, 0.3}}};
  const std::vector<ArcDelta> b = {{5, {2.0, 2.0}, {0.3, 0.3}},
                                   {1, {1.0, 1.0}, {0.0, 0.0}}};
  EXPECT_EQ(timing::delta_set_hash(a), timing::delta_set_hash(b));
  std::vector<ArcDelta> c = a;
  c[0].mu[0] = 1.0000001;
  EXPECT_NE(timing::delta_set_hash(a), timing::delta_set_hash(c));
}

TEST(DeltaCanon, EqualityIsBitwise) {
  const std::vector<ArcDelta> a = {{1, {0.0, 1.0}, {0.0, 0.0}}};
  std::vector<ArcDelta> b = a;
  EXPECT_TRUE(timing::deltas_equal(a, b));
  b[0].mu[0] = -0.0;  // same value, different bits
  EXPECT_FALSE(timing::deltas_equal(a, b));
  const double nan = std::numeric_limits<double>::quiet_NaN();
  std::vector<ArcDelta> n1 = {{1, {nan, 1.0}, {0.0, 0.0}}};
  std::vector<ArcDelta> n2 = {{1, {nan, 1.0}, {0.0, 0.0}}};
  EXPECT_TRUE(timing::deltas_equal(n1, n2));  // NaN-safe (same bit pattern)
}

// ---- codec: snapshots ----------------------------------------------------------

TEST(Codec, SnapshotRoundTripsByteExactAcrossCornerCounts) {
  for (const std::size_t corners : {1u, 2u, 4u}) {
    Fixture f(11 + corners, /*hold=*/true);
    auto engine = f.make_engine(corner_set(corners), /*hold=*/true);
    util::Rng rng(40 + corners);
    commit_edits(*engine, f, rng, 3);

    const EngineState out = engine->export_state();
    const std::string frame = replica::encode_snapshot(out);
    EngineState in;
    const std::string err = replica::decode_snapshot(frame, in);
    ASSERT_TRUE(err.empty()) << err;
    expect_state_eq(out, in);
  }
}

TEST(Codec, SnapshotRejectsCorruptionTruncationAndWrongKind) {
  Fixture f(13);
  auto engine = f.make_engine();
  const std::string frame = replica::encode_snapshot(engine->export_state());
  EngineState scratch;

  // Single-byte corruption anywhere must fail the checksum (or a header
  // check); probe a spread of positions including header and payload.
  for (const std::size_t pos :
       {std::size_t{0}, std::size_t{5}, std::size_t{8}, std::size_t{30},
        frame.size() / 2, frame.size() - 1}) {
    std::string bad = frame;
    bad[pos] = static_cast<char>(bad[pos] ^ 0x40);
    EXPECT_FALSE(replica::decode_snapshot(bad, scratch).empty())
        << "corruption at byte " << pos << " was accepted";
  }
  // Truncation at any prefix must be rejected, never read out of bounds.
  for (const std::size_t len :
       {std::size_t{0}, std::size_t{3}, std::size_t{23}, frame.size() / 3,
        frame.size() - 1}) {
    EXPECT_FALSE(
        replica::decode_snapshot(std::string_view(frame).substr(0, len),
                                 scratch)
            .empty())
        << "truncation to " << len << " bytes was accepted";
  }
  // Trailing garbage is rejected too (a frame is exactly one message).
  EXPECT_FALSE(replica::decode_snapshot(frame + "x", scratch).empty());
  // A delta frame is not a snapshot.
  CommitRecord rec;
  rec.parent_generation = 1;
  rec.generation = 2;
  EXPECT_FALSE(
      replica::decode_snapshot(replica::encode_delta(rec), scratch).empty());
}

TEST(Codec, DeltaRoundTripsWithCornerTargetsAndOrdering) {
  CommitRecord rec;
  rec.parent_generation = 41;
  rec.generation = 42;
  rec.commit_unix_us = 1754700000000000;
  rec.sets.push_back({core::kAllCorners,
                      {{3, {1.5, 1.5}, {0.1, 0.2}}, {9, {0.0, -0.0}, {0, 0}}}});
  rec.sets.push_back({core::CornerId{1}, {{7, {2.5, 2.25}, {0.0, 0.0}}}});

  const std::string frame = replica::encode_delta(rec);
  CommitRecord back;
  const std::string err = replica::decode_delta(frame, back);
  ASSERT_TRUE(err.empty()) << err;
  EXPECT_EQ(back.parent_generation, 41u);
  EXPECT_EQ(back.generation, 42u);
  EXPECT_EQ(back.commit_unix_us, rec.commit_unix_us);
  ASSERT_EQ(back.sets.size(), 2u);
  EXPECT_EQ(back.sets[0].corner, core::kAllCorners);
  EXPECT_TRUE(timing::deltas_equal(back.sets[0].deltas, rec.sets[0].deltas));
  EXPECT_EQ(back.sets[1].corner, core::CornerId{1});
  EXPECT_TRUE(timing::deltas_equal(back.sets[1].deltas, rec.sets[1].deltas));

  // Corruption and truncation are rejected here too.
  CommitRecord scratch;
  std::string bad = frame;
  bad[frame.size() - 2] = static_cast<char>(bad[frame.size() - 2] ^ 1);
  EXPECT_FALSE(replica::decode_delta(bad, scratch).empty());
  EXPECT_FALSE(replica::decode_delta(
                   std::string_view(frame).substr(0, frame.size() / 2),
                   scratch)
                   .empty());
}

// ---- delta log -----------------------------------------------------------------

CommitRecord make_rec(std::uint64_t parent) {
  CommitRecord rec;
  rec.parent_generation = parent;
  rec.generation = parent + 1;
  rec.sets.push_back({core::kAllCorners, {{1, {1.0, 1.0}, {0.0, 0.0}}}});
  return rec;
}

TEST(DeltaLog, ServesChainsReportsGapsAndEnforcesChaining) {
  replica::DeltaLog log(/*capacity=*/4);
  log.seed(10);
  EXPECT_EQ(log.base(), 10u);
  EXPECT_EQ(log.latest(), 10u);

  std::vector<CommitRecord> out;
  EXPECT_TRUE(log.since(10, out));  // up to date: empty, in window
  EXPECT_TRUE(out.empty());

  for (std::uint64_t g = 10; g < 13; ++g) log.append(make_rec(g));
  EXPECT_EQ(log.latest(), 13u);
  out.clear();
  EXPECT_TRUE(log.since(11, out));
  ASSERT_EQ(out.size(), 2u);
  EXPECT_EQ(out[0].generation, 12u);
  EXPECT_EQ(out[1].generation, 13u);

  // A record that does not extend the head is a caller bug.
  EXPECT_THROW(log.append(make_rec(99)), util::CheckError);

  // Ring overflow advances the base; a client below it needs a resync.
  for (std::uint64_t g = 13; g < 20; ++g) log.append(make_rec(g));
  EXPECT_EQ(log.size(), 4u);
  EXPECT_EQ(log.base(), 16u);
  EXPECT_FALSE(log.since(10, out));  // fell out of the window
  EXPECT_FALSE(log.since(21, out));  // ahead of the head: diverged
  out.clear();
  EXPECT_TRUE(log.since(16, out));
  ASSERT_EQ(out.size(), 4u);

  // Re-seeding (after an import) resets the chain.
  log.seed(100);
  EXPECT_EQ(log.base(), 100u);
  EXPECT_EQ(log.size(), 0u);
  EXPECT_FALSE(log.since(16, out));
}

// ---- what-if cache ---------------------------------------------------------------

core::ScenarioResult tagged_result(double tns) {
  core::ScenarioResult r;
  r.setup.tns = tns;
  return r;
}

TEST(WhatifCache, KeysOnGenerationCornerAndCanonicalDeltas) {
  replica::WhatifCache cache(/*max_entries=*/8);
  const std::vector<ArcDelta> fwd = {{2, {1.0, 1.0}, {0.0, 0.0}},
                                     {5, {2.0, 2.0}, {0.0, 0.0}}};
  const std::vector<ArcDelta> rev = {{5, {2.0, 2.0}, {0.0, 0.0}},
                                     {2, {1.0, 1.0}, {0.0, 0.0}}};
  auto canon_fwd = replica::WhatifCache::canonicalize(fwd);
  auto canon_rev = replica::WhatifCache::canonicalize(rev);

  core::ScenarioResult out;
  EXPECT_FALSE(cache.lookup(1, -1, canon_fwd, out));
  cache.insert(1, -1, std::move(canon_fwd), tagged_result(-3.5));

  // Reordered delta-sets share the entry (canonical keying)...
  ASSERT_TRUE(cache.lookup(1, -1, canon_rev, out));
  EXPECT_EQ(out.setup.tns, -3.5);
  // ...but another generation or another corner does not.
  EXPECT_FALSE(cache.lookup(2, -1, canon_rev, out));
  EXPECT_FALSE(cache.lookup(1, 0, canon_rev, out));

  const replica::WhatifCacheStats st = cache.stats();
  EXPECT_EQ(st.hits, 1u);
  EXPECT_EQ(st.misses, 3u);
  EXPECT_EQ(st.entries, 1u);
}

TEST(WhatifCache, EvictsLeastRecentlyUsedAndDisablesAtZero) {
  replica::WhatifCache cache(/*max_entries=*/2);
  const auto scenario = [](timing::ArcId arc) {
    return replica::WhatifCache::canonicalize(
        std::vector<ArcDelta>{{arc, {1.0, 1.0}, {0.0, 0.0}}});
  };
  cache.insert(1, -1, scenario(1), tagged_result(-1));
  cache.insert(1, -1, scenario(2), tagged_result(-2));
  core::ScenarioResult out;
  ASSERT_TRUE(cache.lookup(1, -1, scenario(1), out));  // 1 is now MRU
  cache.insert(1, -1, scenario(3), tagged_result(-3)); // evicts 2
  EXPECT_TRUE(cache.lookup(1, -1, scenario(1), out));
  EXPECT_FALSE(cache.lookup(1, -1, scenario(2), out));
  EXPECT_TRUE(cache.lookup(1, -1, scenario(3), out));
  EXPECT_EQ(cache.stats().evictions, 1u);

  replica::WhatifCache off(0);
  EXPECT_FALSE(off.enabled());
  off.insert(1, -1, scenario(1), tagged_result(-1));
  EXPECT_FALSE(off.lookup(1, -1, scenario(1), out));
  EXPECT_EQ(off.stats().entries, 0u);
  EXPECT_EQ(off.stats().misses, 0u);  // disabled lookups are not counted
}

// ---- engine state export / import ------------------------------------------------

TEST(EngineState, ImportReproducesEveryAccessorOnAFreshEngine) {
  Fixture f(17, /*hold=*/true);
  auto writer = f.make_engine(corner_set(2), /*hold=*/true);
  util::Rng rng(90);
  commit_edits(*writer, f, rng, 4);

  auto replica_engine = f.make_engine(corner_set(2), /*hold=*/true);
  ASSERT_NE(replica_engine->generation(), writer->generation());
  replica_engine->import_state(writer->export_state());

  EXPECT_EQ(replica_engine->generation(), writer->generation());
  expect_state_eq(replica_engine->export_state(), writer->export_state());
  EXPECT_EQ(replica_engine->merged_summary(Mode::kSetup),
            writer->merged_summary(Mode::kSetup));
  EXPECT_EQ(replica_engine->merged_summary(Mode::kHold),
            writer->merged_summary(Mode::kHold));
  for (std::size_t e = 0; e < f.graph->endpoints().size(); ++e) {
    const auto ep = static_cast<timing::EndpointId>(e);
    for (core::CornerId c = 0; c < 2; ++c) {
      const float a = replica_engine->endpoint_slack(ep, c);
      const float b = writer->endpoint_slack(ep, c);
      EXPECT_TRUE(a == b || (std::isnan(a) && std::isnan(b)));
    }
  }
}

TEST(EngineState, ImportRejectsMismatchedShapeOrOptions) {
  Fixture f(19);
  auto writer = f.make_engine(corner_set(1));
  const EngineState st = writer->export_state();

  {
    auto other = f.make_engine(corner_set(2));  // corner count differs
    EXPECT_THROW(other->import_state(st), util::CheckError);
  }
  {
    core::EngineOptions opt;
    opt.top_k = 4;  // Top-K capacity differs
    core::Engine other(*f.sta, opt);
    other.run_forward();
    EXPECT_THROW(other.import_state(st), util::CheckError);
  }
  {
    Fixture g(23);  // different design entirely
    auto other = g.make_engine(corner_set(1));
    EXPECT_THROW(other->import_state(st), util::CheckError);
  }
}

/// A snapshot's Top-K counts bound how many entries the merge kernels
/// write per pin, so one outside [0, top_k] must be refused before any
/// plane is replaced.
TEST(EngineState, ImportRejectsOutOfRangeTopKCounts) {
  Fixture f(31, /*hold=*/true);
  auto writer = f.make_engine(corner_set(1), /*hold=*/true);
  const EngineState good = writer->export_state();
  ASSERT_FALSE(good.tk_cnt.empty());
  ASSERT_FALSE(good.tk2_cnt.empty());

  auto target = f.make_engine(corner_set(1), /*hold=*/true);
  const EngineState before = target->export_state();
  const auto refused = [&](EngineState bad) {
    EXPECT_THROW(target->import_state(bad), util::CheckError);
    expect_state_eq(target->export_state(), before);
  };
  {
    EngineState bad = good;
    bad.tk_cnt[0] = good.top_k + 1;
    refused(bad);
  }
  {
    EngineState bad = good;
    bad.tk_cnt.back() = -1;
    refused(bad);
  }
  {
    EngineState bad = good;
    bad.tk2_cnt[bad.tk2_cnt.size() / 2] = good.top_k + 1;
    refused(bad);
  }
  {
    EngineState edge = good;
    edge.tk_cnt[0] = good.top_k;  // the capacity itself is in range
    target->import_state(edge);
    EXPECT_EQ(target->generation(), writer->generation());
  }
}

TEST(EngineState, ExportRequiresCleanCommittedState) {
  Fixture f(29);
  auto engine = f.make_engine();
  util::Rng rng(5);
  const auto scen = f.make_scenarios(rng, 1);
  ASSERT_FALSE(scen.empty());

  {
    core::Engine::Transaction tx = engine->begin_edit();
    tx.annotate(scen[0]);
    EXPECT_THROW((void)engine->export_state(), util::CheckError);
    engine->run_forward_incremental();
    EXPECT_THROW((void)engine->export_state(), util::CheckError);  // txn open
    tx.commit();
  }
  EXPECT_TRUE(engine->export_state().generation == engine->generation());
}

/// The constructor fills the Top-K planes on the thread pool, or serially
/// in an engine whose loops are pinned inline. Either way the image must
/// come out byte for byte the same, lanes past each list's count included.
TEST(EngineState, ParallelConstructionMatchesSerialByteForByte) {
  gen::LogicBlockSpec spec = gen::tiny_spec(37);
  spec.num_gates = 3000;  // the planes span several fill chunks
  spec.num_ffs = 160;
  for (const bool hold : {false, true}) {
    const Fixture f(spec, hold);
    for (const std::size_t corners : {1u, 4u}) {
      SCOPED_TRACE("hold " + std::to_string(hold) + ", corners " +
                   std::to_string(corners));
      core::EngineOptions opt;
      opt.top_k = 8;
      opt.enable_hold = hold;
      opt.corners = corner_set(corners);
      core::Engine par(*f.sta, opt);
      core::Engine ser = core::EngineTestPeer::serial(*f.sta, opt);
      par.run_forward();
      ser.run_forward();
      expect_state_eq(par.export_state(), ser.export_state());
    }
  }
}

/// merged_summary is cached per generation; both rollback (same generation,
/// same bytes) and import (possibly same generation number, different
/// bytes) must leave it correct.
TEST(EngineState, MergedSummaryCacheSurvivesRollbackAndImportCollision) {
  Fixture f(31, /*hold=*/true);
  auto engine = f.make_engine(corner_set(2), /*hold=*/true);
  util::Rng rng(77);
  const auto scen = f.make_scenarios(rng, 1);
  ASSERT_FALSE(scen.empty());

  const core::SlackSummary before = engine->merged_summary(Mode::kSetup);
  {
    core::Engine::Transaction tx = engine->begin_edit();
    tx.annotate(scen[0]);
    engine->run_forward_incremental();
    (void)engine->merged_summary(Mode::kSetup);  // may cache mid-txn state
    tx.rollback();
  }
  engine->run_forward_incremental();
  EXPECT_EQ(engine->merged_summary(Mode::kSetup), before);

  // Generation-number collision: two engines at the same generation with
  // different bytes. The import must not serve the stale cached summary.
  auto a = f.make_engine(corner_set(2), /*hold=*/true);
  auto b = f.make_engine(corner_set(2), /*hold=*/true);
  {
    // A delay large enough to guarantee the merged summary moves (random
    // ECO deltas can land on paths with enough headroom to stay clean).
    const auto scen = f.make_scenarios(rng, 1);
    ASSERT_FALSE(scen.empty());
    std::vector<ArcDelta> big = scen[0];
    for (ArcDelta& d : big) d.mu = {1.0e4, 1.0e4};
    core::Engine::Transaction tx = b->begin_edit();
    tx.annotate(big);
    b->run_forward_incremental();
    tx.commit();
  }                                                // b: generation 2, edited
  a->run_forward();                                // a: generation 2, pristine
  ASSERT_EQ(a->generation(), b->generation());
  const core::SlackSummary stale = a->merged_summary(Mode::kSetup);
  ASSERT_NE(b->merged_summary(Mode::kSetup), stale);  // the edit bit
  a->import_state(b->export_state());
  EXPECT_EQ(a->merged_summary(Mode::kSetup),
            b->merged_summary(Mode::kSetup));
  EXPECT_NE(a->merged_summary(Mode::kSetup), stale);
}

// ---- service-level replication -----------------------------------------------------

std::string repl_socket_path(const char* tag) {
  return "/tmp/insta_test_replica_" + std::to_string(::getpid()) + "_" + tag +
         ".sock";
}

TEST(ReplicatorOptions, ValidateRejectsAnUndialableUpstreamAndPollMsBelowOne) {
  replica::ReplicatorOptions good;
  for (const std::string upstream :
       {"127.0.0.1:7000", "unix:/tmp/writer.sock"}) {
    good.upstream = upstream;
    EXPECT_TRUE(good.validate().empty()) << upstream;
  }
  // serve::Client's own parser decides, so each problem is the message its
  // constructor would throw, naming the endpoint.
  for (const std::string upstream :
       {"127.0.0.1:70000", "127.0.0.1:abc", "127.0.0.1", "localhost:7000"}) {
    replica::ReplicatorOptions bad;
    bad.upstream = upstream;
    const std::vector<std::string> problems = bad.validate();
    ASSERT_EQ(problems.size(), 1u) << upstream;
    EXPECT_EQ(problems[0], serve::endpoint_problem(upstream));
    EXPECT_NE(problems[0].find(upstream), std::string::npos) << problems[0];
  }
  replica::ReplicatorOptions both;
  both.poll_ms = 0;
  EXPECT_EQ(both.validate().size(), 2u);

  // The constructor rejects them before any connection is attempted.
  Fixture f(41);
  auto engine = f.make_engine(corner_set(1));
  serve::TimingService service(*engine);
  replica::ReplicatorOptions bad;
  bad.upstream = "127.0.0.1:70000";
  EXPECT_THROW(replica::Replicator(service, bad), util::CheckError);
  good.poll_ms = 0;
  EXPECT_THROW(replica::Replicator(service, good), util::CheckError);
}

TEST(ServiceReplication, ApplyCommitReproducesWriterBytesAndChecksChaining) {
  Fixture f(37, /*hold=*/true);
  auto writer_engine = f.make_engine(corner_set(2), /*hold=*/true);
  serve::TimingService writer(*writer_engine);

  auto replica_engine = f.make_engine(corner_set(2), /*hold=*/true);
  serve::ServiceOptions ropt;
  ropt.read_only = true;
  serve::TimingService replica_svc(*replica_engine, ropt);

  // Read-only: the edit API is closed...
  serve::SessionId rsid = -1;
  ASSERT_TRUE(replica_svc.open_session(rsid).ok());
  EXPECT_EQ(replica_svc.begin_edit(rsid).code, serve::ErrorCode::kUnsupported);

  // ...but replication applies commits through the internal path.
  serve::SessionId wsid = -1;
  ASSERT_TRUE(writer.open_session(wsid).ok());
  util::Rng rng(55);
  const std::uint64_t base = writer.snapshot()->version;
  for (int k = 0; k < 3; ++k) {
    const auto scen = f.make_scenarios(rng, 1);
    ASSERT_FALSE(scen.empty());
    ASSERT_TRUE(writer.begin_edit(wsid).ok());
    ASSERT_TRUE(writer.annotate(wsid, scen[0]).ok());
    serve::TimingService::CommitReply cr;
    ASSERT_TRUE(writer.commit(wsid, cr).ok());
  }

  std::vector<CommitRecord> recs;
  ASSERT_TRUE(writer.delta_log().since(base, recs));
  ASSERT_EQ(recs.size(), 3u);

  // Applying out of order must fail without touching the engine.
  EXPECT_EQ(replica_svc.apply_commit(recs[1]).code,
            serve::ErrorCode::kInternal);
  EXPECT_EQ(replica_svc.snapshot()->version, base);

  for (const CommitRecord& rec : recs) {
    ASSERT_TRUE(replica_svc.apply_commit(rec).ok());
  }
  EXPECT_EQ(replica_svc.snapshot()->version, writer.snapshot()->version);
  expect_state_eq(replica_svc.export_state(), writer.export_state());
  // The replica's published snapshot (merged_summary caches included) is
  // the writer's.
  EXPECT_EQ(replica_svc.snapshot()->setup, writer.snapshot()->setup);
  EXPECT_EQ(replica_svc.snapshot()->hold, writer.snapshot()->hold);
  EXPECT_TRUE(same_bytes(replica_svc.snapshot()->slack,
                         writer.snapshot()->slack, "snapshot slack"));
}

TEST(ServiceReplication, WhatifCacheHitsServeBitIdenticalResults) {
  Fixture f(41);
  auto engine = f.make_engine();
  serve::ServiceOptions sopt;
  sopt.whatif_cache_entries = 16;
  serve::TimingService service(*engine, sopt);
  serve::SessionId sid = -1;
  ASSERT_TRUE(service.open_session(sid).ok());

  util::Rng rng(60);
  const auto scen = f.make_scenarios(rng, 2);
  ASSERT_GE(scen.size(), 2u);

  serve::TimingService::WhatifReply first;
  ASSERT_TRUE(service.whatif(sid, {scen[0], scen[1]}, first).ok());
  EXPECT_EQ(service.cache_stats().hits, 0u);

  serve::TimingService::WhatifReply second;
  ASSERT_TRUE(service.whatif(sid, {scen[0], scen[1]}, second).ok());
  const replica::WhatifCacheStats st = service.cache_stats();
  EXPECT_EQ(st.hits, 2u);  // both scenarios answered from the cache
  EXPECT_EQ(second.version, first.version);
  ASSERT_EQ(second.results.size(), 2u);
  EXPECT_EQ(second.results[0].setup, first.results[0].setup);
  EXPECT_EQ(second.results[1].setup, first.results[1].setup);

  // A commit bumps the generation; old entries stop matching.
  ASSERT_TRUE(service.begin_edit(sid).ok());
  ASSERT_TRUE(service.annotate(sid, scen[0]).ok());
  serve::TimingService::CommitReply cr;
  ASSERT_TRUE(service.commit(sid, cr).ok());
  serve::TimingService::WhatifReply third;
  ASSERT_TRUE(service.whatif(sid, {scen[1]}, third).ok());
  EXPECT_EQ(service.cache_stats().hits, 2u);  // miss: new generation
  EXPECT_EQ(third.version, cr.version);
}

TEST(ServiceReplication, SocketReplicationConvergesAndRestartUsesDeltasOnly) {
  Fixture f(43);
  auto writer_engine = f.make_engine(corner_set(2));
  serve::TimingService writer(*writer_engine);
  serve::ServerOptions nopt;
  nopt.unix_path = repl_socket_path("e2e");
  serve::Server server(writer, nopt);
  server.start();

  const auto converge = [](serve::TimingService& svc, std::uint64_t target) {
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(20);
    while (svc.snapshot()->version < target &&
           std::chrono::steady_clock::now() < deadline) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    return svc.snapshot()->version >= target;
  };
  const auto commit_one = [&](util::Rng& rng) {
    serve::SessionId wsid = -1;
    ASSERT_TRUE(writer.open_session(wsid).ok());
    const auto scen = f.make_scenarios(rng, 1);
    ASSERT_FALSE(scen.empty());
    ASSERT_TRUE(writer.begin_edit(wsid).ok());
    ASSERT_TRUE(writer.annotate(wsid, scen[0]).ok());
    serve::TimingService::CommitReply cr;
    ASSERT_TRUE(writer.commit(wsid, cr).ok());
    ASSERT_TRUE(writer.close_session(wsid).ok());
  };

  util::Rng rng(70);
  {
    // Live replica: bootstraps at the shared base generation (no snapshot
    // needed), then follows commits through the delta stream.
    auto replica_engine = f.make_engine(corner_set(2));
    serve::ServiceOptions ropt;
    ropt.read_only = true;
    serve::TimingService replica_svc(*replica_engine, ropt);
    replica::ReplicatorOptions rro;
    rro.upstream = "unix:" + nopt.unix_path;
    rro.poll_ms = 1;
    replica::Replicator rep(replica_svc, rro);
    rep.bootstrap();
    rep.start();

    for (int k = 0; k < 3; ++k) commit_one(rng);
    ASSERT_TRUE(converge(replica_svc, writer.snapshot()->version));
    rep.stop();

    EXPECT_EQ(rep.info().full_syncs.load(), 0u);
    EXPECT_EQ(rep.info().applied_deltas.load(), 3u);
    EXPECT_NE(rep.info().last_lag_us.load(), -1);  // at least one apply ran
    expect_state_eq(replica_svc.export_state(), writer.export_state());

    // The converged replica answers a what-if with the writer's bytes.
    util::Rng probe_rng(71);
    const auto probe = f.make_scenarios(probe_rng, 1);
    ASSERT_FALSE(probe.empty());
    serve::SessionId wsid = -1;
    serve::SessionId rsid = -1;
    ASSERT_TRUE(writer.open_session(wsid).ok());
    ASSERT_TRUE(replica_svc.open_session(rsid).ok());
    serve::TimingService::WhatifReply wrep;
    serve::TimingService::WhatifReply rrep;
    ASSERT_TRUE(writer.whatif(wsid, {probe[0]}, wrep).ok());
    ASSERT_TRUE(replica_svc.whatif(rsid, {probe[0]}, rrep).ok());
    EXPECT_EQ(rrep.version, wrep.version);
    ASSERT_EQ(rrep.results.size(), 1u);
    ASSERT_EQ(wrep.results.size(), 1u);
    EXPECT_EQ(rrep.results[0].setup, wrep.results[0].setup);
    EXPECT_EQ(rrep.results[0].setup_by_corner, wrep.results[0].setup_by_corner);
    ASSERT_TRUE(writer.close_session(wsid).ok());
    ASSERT_TRUE(replica_svc.close_session(rsid).ok());
  }

  // Two more commits land while no replica is running.
  for (int k = 0; k < 2; ++k) commit_one(rng);

  {
    // "Restarted" replica: a fresh engine sits at the writer's delta-log
    // base generation, so the entire gap replays as deltas — no snapshot
    // transfer, full_syncs stays 0.
    auto replica_engine = f.make_engine(corner_set(2));
    serve::ServiceOptions ropt;
    ropt.read_only = true;
    serve::TimingService replica_svc(*replica_engine, ropt);
    replica::ReplicatorOptions rro;
    rro.upstream = "unix:" + nopt.unix_path;
    rro.poll_ms = 1;
    replica::Replicator rep(replica_svc, rro);
    rep.bootstrap();

    EXPECT_EQ(rep.info().full_syncs.load(), 0u);
    EXPECT_EQ(rep.info().applied_deltas.load(), 5u);
    EXPECT_EQ(replica_svc.snapshot()->version, writer.snapshot()->version);
    expect_state_eq(replica_svc.export_state(), writer.export_state());
  }

  {
    // Gap recovery: a writer whose delta log has shed the replica's
    // generation forces exactly one full sync.
    auto replica_engine = f.make_engine(corner_set(2));
    serve::ServiceOptions ropt;
    ropt.read_only = true;
    serve::TimingService replica_svc(*replica_engine, ropt);
    // Age the writer's log out from under the replica's base generation.
    for (int k = 0; k < 2; ++k) commit_one(rng);
    writer.delta_log().seed(writer.snapshot()->version);
    replica::ReplicatorOptions rro;
    rro.upstream = "unix:" + nopt.unix_path;
    rro.poll_ms = 1;
    replica::Replicator rep(replica_svc, rro);
    rep.bootstrap();
    EXPECT_EQ(rep.info().full_syncs.load(), 1u);
    expect_state_eq(replica_svc.export_state(), writer.export_state());
  }

  server.stop();
  ::unlink(nopt.unix_path.c_str());
}

}  // namespace
}  // namespace insta
