// Tests for the telemetry subsystem: metrics registry (concurrency,
// histogram bucketing, percentile estimation, snapshot consistency), trace
// export (JSON validity, B/E balance, flow events, nesting across
// parallel_for), the flight recorder (ring semantics, wrap, concurrent
// writers), the JSON parser/validators, and the pluggable log sink.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "telemetry/flight_recorder.hpp"
#include "telemetry/json.hpp"
#include "telemetry/telemetry.hpp"
#include "telemetry/validate.hpp"
#include "util/log.hpp"
#include "util/thread_pool.hpp"

namespace insta {
namespace {

TEST(Metrics, CounterBasics) {
  telemetry::MetricsRegistry reg;
  telemetry::Counter c = reg.counter("test.basic");
  c.inc();
  c.add(41);
  EXPECT_EQ(reg.snapshot().counter_or("test.basic", 0), 42u);
  EXPECT_EQ(reg.snapshot().counter_or("test.missing", 7), 7u);

  // Registration is idempotent: the same name maps to the same counter.
  telemetry::Counter c2 = reg.counter("test.basic");
  c2.inc();
  EXPECT_EQ(reg.snapshot().counter_or("test.basic", 0), 43u);

  reg.reset();
  EXPECT_EQ(reg.snapshot().counter_or("test.basic", 0), 0u);
}

TEST(Metrics, DefaultHandlesAreNoOps) {
  telemetry::Counter c;
  telemetry::Gauge g;
  telemetry::Histogram h;
  c.inc();
  g.set(1.0);
  h.observe(1.0);  // must not crash
}

TEST(Metrics, ConcurrentIncrementsSumExactly) {
  telemetry::MetricsRegistry reg;
  telemetry::Counter c = reg.counter("test.concurrent");
  constexpr int kThreads = 8;
  constexpr std::uint64_t kPerThread = 100000;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([c]() mutable {
      for (std::uint64_t i = 0; i < kPerThread; ++i) c.inc();
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(reg.snapshot().counter_or("test.concurrent", 0),
            kThreads * kPerThread);
}

TEST(Metrics, ConcurrentIncrementsFromPoolSumExactly) {
  telemetry::MetricsRegistry reg;
  telemetry::Counter c = reg.counter("test.pool");
  constexpr std::size_t kItems = 200000;
  util::ThreadPool::global().parallel_for_chunks(
      0, kItems,
      [c](std::size_t lo, std::size_t hi) mutable {
        for (std::size_t i = lo; i < hi; ++i) c.inc();
      },
      64);
  EXPECT_EQ(reg.snapshot().counter_or("test.pool", 0), kItems);
}

TEST(Metrics, GaugeSetAndMax) {
  telemetry::MetricsRegistry reg;
  telemetry::Gauge g = reg.gauge("test.gauge");
  g.set(2.5);
  EXPECT_DOUBLE_EQ(reg.snapshot().gauge_or("test.gauge", 0.0), 2.5);
  g.set_max(1.0);  // lower: ignored
  EXPECT_DOUBLE_EQ(reg.snapshot().gauge_or("test.gauge", 0.0), 2.5);
  g.set_max(9.0);  // higher: taken
  EXPECT_DOUBLE_EQ(reg.snapshot().gauge_or("test.gauge", 0.0), 9.0);
}

TEST(Metrics, HistogramBucketBoundaries) {
  telemetry::MetricsRegistry reg;
  // base 1, growth 2: bucket 0 <= 1, bucket 1 (1, 2], bucket 2 (2, 4], ...
  telemetry::Histogram h = reg.histogram("test.hist", {1.0, 2.0});
  h.observe(0.5);   // bucket 0
  h.observe(1.0);   // bucket 0 (inclusive upper bound)
  h.observe(1.5);   // bucket 1
  h.observe(2.0);   // bucket 1 (boundary lands in the lower bucket)
  h.observe(2.001); // bucket 2
  h.observe(4.0);   // bucket 2
  h.observe(1e30);  // clamped into the last (unbounded) bucket

  const telemetry::HistogramSnapshot hs =
      reg.snapshot().histograms.at("test.hist");
  ASSERT_EQ(hs.buckets.size(),
            static_cast<std::size_t>(telemetry::MetricsRegistry::kNumBuckets));
  ASSERT_EQ(hs.bounds.size(), hs.buckets.size() - 1);
  EXPECT_EQ(hs.buckets[0], 2u);
  EXPECT_EQ(hs.buckets[1], 2u);
  EXPECT_EQ(hs.buckets[2], 2u);
  EXPECT_EQ(hs.buckets.back(), 1u);
  EXPECT_EQ(hs.count, 7u);
  EXPECT_DOUBLE_EQ(hs.min, 0.5);
  EXPECT_DOUBLE_EQ(hs.max, 1e30);
  EXPECT_DOUBLE_EQ(hs.bounds[0], 1.0);
  EXPECT_DOUBLE_EQ(hs.bounds[1], 2.0);
  EXPECT_DOUBLE_EQ(hs.bounds[2], 4.0);

  // Re-registering with a different spec is an error.
  EXPECT_THROW(reg.histogram("test.hist", {1.0, 3.0}), std::runtime_error);
}

TEST(Metrics, SnapshotWhileWritingIsConsistent) {
  telemetry::MetricsRegistry reg;
  telemetry::Histogram h = reg.histogram("test.live", {1.0, 2.0});
  std::atomic<bool> stop{false};
  std::thread writer([h, &stop]() mutable {
    double v = 0.1;
    while (!stop.load(std::memory_order_relaxed)) {
      h.observe(v);
      v = v > 1e6 ? 0.1 : v * 1.7;
    }
  });
  for (int i = 0; i < 200; ++i) {
    const telemetry::MetricsSnapshot snap = reg.snapshot();
    const telemetry::HistogramSnapshot& hs = snap.histograms.at("test.live");
    std::uint64_t sum = 0;
    for (const std::uint64_t b : hs.buckets) sum += b;
    // The invariant the JSON checker enforces: count is derived from the
    // buckets, never torn against them.
    EXPECT_EQ(hs.count, sum);
  }
  stop.store(true);
  writer.join();
}

TEST(Metrics, SnapshotJsonValidates) {
  telemetry::MetricsRegistry reg;
  reg.counter("c.one").add(3);
  reg.gauge("g.one").set(1.25);
  reg.histogram("h.one", {1.0, 2.0}).observe(5.0);
  const std::string json = reg.snapshot().to_json();
  const telemetry::ValidationResult r = telemetry::validate_metrics_json(json);
  EXPECT_TRUE(r.ok) << (r.errors.empty() ? "" : r.errors.front());
}

TEST(Metrics, PercentilesMatchKnownDistributions) {
  telemetry::MetricsRegistry reg;

  // Empty histogram: all percentiles are 0.
  telemetry::Histogram empty = reg.histogram("test.pct_empty", {1.0, 2.0});
  (void)empty;
  EXPECT_DOUBLE_EQ(
      reg.snapshot().histograms.at("test.pct_empty").percentile(0.5), 0.0);

  // Single value: every quantile is that value (clamping to [min, max]).
  telemetry::Histogram one = reg.histogram("test.pct_one", {1.0, 2.0});
  one.observe(7.0);
  {
    const telemetry::HistogramSnapshot hs =
        reg.snapshot().histograms.at("test.pct_one");
    EXPECT_DOUBLE_EQ(hs.percentile(0.0), 7.0);
    EXPECT_DOUBLE_EQ(hs.percentile(0.5), 7.0);
    EXPECT_DOUBLE_EQ(hs.percentile(1.0), 7.0);
  }

  // Uniform 1..1000: the exact quantile q is ~1000q; interpolation inside
  // an exponential bucket is off by at most the bucket width (a factor of
  // `growth` = 2 here), so check within [exact / 2, exact * 2].
  telemetry::Histogram uni = reg.histogram("test.pct_uniform", {1.0, 2.0});
  for (int v = 1; v <= 1000; ++v) uni.observe(static_cast<double>(v));
  {
    const telemetry::HistogramSnapshot hs =
        reg.snapshot().histograms.at("test.pct_uniform");
    for (const double q : {0.50, 0.95, 0.99}) {
      const double exact = 1000.0 * q;
      const double est = hs.percentile(q);
      EXPECT_GE(est, exact / 2.0) << "q=" << q;
      EXPECT_LE(est, exact * 2.0) << "q=" << q;
      EXPECT_GE(est, hs.min);
      EXPECT_LE(est, hs.max);
    }
    // Monotone in q.
    EXPECT_LE(hs.percentile(0.50), hs.percentile(0.95));
    EXPECT_LE(hs.percentile(0.95), hs.percentile(0.99));
  }

  // Two-point mass: 90% at ~1, 10% at ~1000. p50 sits in the low bucket,
  // p99 in the high one.
  telemetry::Histogram bi = reg.histogram("test.pct_bimodal", {1.0, 2.0});
  for (int i = 0; i < 90; ++i) bi.observe(1.0);
  for (int i = 0; i < 10; ++i) bi.observe(1000.0);
  {
    const telemetry::HistogramSnapshot hs =
        reg.snapshot().histograms.at("test.pct_bimodal");
    EXPECT_LE(hs.percentile(0.50), 2.0);
    EXPECT_GE(hs.percentile(0.99), 500.0);
  }
}

TEST(Metrics, SnapshotJsonCarriesOrderedPercentiles) {
  telemetry::MetricsRegistry reg;
  telemetry::Histogram h = reg.histogram("test.pct_json", {1.0, 2.0});
  for (int v = 1; v <= 100; ++v) h.observe(static_cast<double>(v));
  const std::string json = reg.snapshot().to_json();
  EXPECT_TRUE(telemetry::validate_metrics_json(json).ok);

  telemetry::JsonValue doc;
  std::string error;
  ASSERT_TRUE(telemetry::json_parse(json, doc, error)) << error;
  const telemetry::JsonValue* hist =
      doc.find("histograms")->find("test.pct_json");
  ASSERT_NE(hist, nullptr);
  const telemetry::JsonValue* p50 = hist->find("p50");
  const telemetry::JsonValue* p95 = hist->find("p95");
  const telemetry::JsonValue* p99 = hist->find("p99");
  ASSERT_NE(p50, nullptr);
  ASSERT_NE(p95, nullptr);
  ASSERT_NE(p99, nullptr);
  EXPECT_LE(p50->number, p95->number);
  EXPECT_LE(p95->number, p99->number);
  EXPECT_LE(p99->number, hist->find("max")->number);
}

TEST(FlightRecorder, RecordRecentAndJsonRoundTrip) {
  telemetry::FlightRecorder& fr = telemetry::FlightRecorder::global();
  fr.clear();
  EXPECT_EQ(fr.total(), 0u);
  EXPECT_TRUE(fr.recent().empty());

  fr.record(telemetry::FlightEventType::kAdmit, 1000, 11, 0, 3);
  fr.record(telemetry::FlightEventType::kEnqueue, 2000, 11, 0, 2);
  fr.record(telemetry::FlightEventType::kReply, 3000, 11, 5, 0);
  EXPECT_EQ(fr.total(), 3u);

  const std::vector<telemetry::FlightEvent> events = fr.recent();
  ASSERT_EQ(events.size(), 3u);
  EXPECT_EQ(events[0].type, telemetry::FlightEventType::kAdmit);
  EXPECT_EQ(events[0].request_id, 11u);
  EXPECT_EQ(events[0].detail, 3u);
  EXPECT_EQ(events[2].type, telemetry::FlightEventType::kReply);
  EXPECT_EQ(events[2].generation, 5u);
  EXPECT_LE(events[0].ts_ns, events[2].ts_ns);
  // The caller's timestamp is recorded verbatim.
  EXPECT_EQ(events[0].ts_ns, 1000u);
  EXPECT_EQ(events[2].ts_ns, 3000u);

  // recent(max) keeps the newest events.
  const std::vector<telemetry::FlightEvent> last = fr.recent(1);
  ASSERT_EQ(last.size(), 1u);
  EXPECT_EQ(last[0].type, telemetry::FlightEventType::kReply);

  // The JSON dump validates against its schema and counts every event.
  std::size_t n = 0;
  const telemetry::ValidationResult r =
      telemetry::validate_flightrec_json(fr.to_json(), &n);
  EXPECT_TRUE(r.ok) << (r.errors.empty() ? "" : r.errors.front());
  EXPECT_EQ(n, 3u);

  fr.clear();
  EXPECT_EQ(fr.total(), 0u);
}

TEST(FlightRecorder, RingWrapsKeepingTheNewestEvents) {
  telemetry::FlightRecorder& fr = telemetry::FlightRecorder::global();
  fr.clear();
  const std::size_t cap = telemetry::FlightRecorder::kCapacity;
  const std::size_t total = cap + 100;
  for (std::size_t i = 0; i < total; ++i) {
    fr.record(telemetry::FlightEventType::kAdmit, telemetry::Tracer::now_ns(),
              i);
  }
  EXPECT_EQ(fr.total(), total);
  const std::vector<telemetry::FlightEvent> events = fr.recent();
  ASSERT_EQ(events.size(), cap);
  // Chronological, and exactly the newest `cap` ids survive.
  EXPECT_EQ(events.front().request_id, 100u);
  EXPECT_EQ(events.back().request_id, total - 1);
  fr.clear();
}

TEST(FlightRecorder, ConcurrentWritersNeverTearReads) {
  telemetry::FlightRecorder& fr = telemetry::FlightRecorder::global();
  fr.clear();
  constexpr int kThreads = 4;
  constexpr std::uint64_t kPerThread = 20000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&fr, t] {
      for (std::uint64_t i = 0; i < kPerThread; ++i) {
        // detail encodes the writer so torn slots would show impossible
        // (id, detail) pairs below.
        fr.record(telemetry::FlightEventType::kEval,
                  telemetry::Tracer::now_ns(),
                  static_cast<std::uint64_t>(t) * kPerThread + i, 0,
                  static_cast<std::uint32_t>(t));
      }
    });
  }
  // Concurrent reads may legitimately find few publishable slots (the
  // hottest ones are mid-overwrite), but whatever they surface must be
  // untorn. The post-join pass below then checks a full quiescent read.
  for (int i = 0; i < 50; ++i) {
    for (const telemetry::FlightEvent& ev : fr.recent(256)) {
      EXPECT_EQ(ev.request_id / kPerThread, ev.detail);
    }
  }
  for (std::thread& t : threads) t.join();
  const std::vector<telemetry::FlightEvent> settled = fr.recent();
  EXPECT_EQ(settled.size(), telemetry::FlightRecorder::kCapacity);
  for (const telemetry::FlightEvent& ev : settled) {
    EXPECT_EQ(ev.request_id / kPerThread, ev.detail);
  }
  EXPECT_EQ(fr.total(), kThreads * kPerThread);
  EXPECT_TRUE(telemetry::validate_flightrec_json(fr.to_json()).ok);
  fr.clear();
}

TEST(Trace, FlowEventsExportAndValidate) {
  telemetry::Tracer& tracer = telemetry::Tracer::global();
  tracer.clear();
  tracer.set_enabled(true);
  {
    telemetry::TraceSpan request("test.request");
    tracer.flow(7, 's');
  }
  {
    telemetry::TraceSpan leader("test.leader");
    tracer.flow(7, 't');
    tracer.flow(8, 't');
  }
  {
    telemetry::TraceSpan request("test.request");
    tracer.flow(7, 'f');
  }
  tracer.set_enabled(false);

  const std::string json = tracer.chrome_trace_json();
  const telemetry::ValidationResult r = telemetry::validate_chrome_trace(json);
  EXPECT_TRUE(r.ok) << (r.errors.empty() ? "" : r.errors.front());

  telemetry::JsonValue doc;
  std::string error;
  ASSERT_TRUE(telemetry::json_parse(json, doc, error)) << error;
  std::set<std::string> phases;
  std::set<std::uint64_t> step_ids;
  for (const telemetry::JsonValue& ev : doc.find("traceEvents")->array) {
    const std::string& ph = ev.find("ph")->string;
    if (ph != "s" && ph != "t" && ph != "f") continue;
    phases.insert(ph);
    EXPECT_EQ(ev.find("name")->string, "req");
    if (ph == "t") {
      step_ids.insert(static_cast<std::uint64_t>(ev.find("id")->number));
    }
    if (ph == "f") {
      ASSERT_NE(ev.find("bp"), nullptr);
      EXPECT_EQ(ev.find("bp")->string, "e");
    }
  }
  EXPECT_EQ(phases.size(), 3u);
  EXPECT_TRUE(step_ids.count(7));
  EXPECT_TRUE(step_ids.count(8));
  tracer.clear();
}

TEST(Trace, ExportIsValidAndBalanced) {
  telemetry::Tracer& tracer = telemetry::Tracer::global();
  tracer.clear();
  tracer.set_enabled(true);
  {
    telemetry::TraceSpan outer("test.outer", 7);
    telemetry::TraceSpan inner("test.inner");
    { INSTA_TRACE_SCOPE("test.leaf", 42); }
  }
  tracer.set_enabled(false);

  const std::string json = tracer.chrome_trace_json();
  std::size_t events = 0;
  const telemetry::ValidationResult r =
      telemetry::validate_chrome_trace(json, &events);
  EXPECT_TRUE(r.ok) << (r.errors.empty() ? "" : r.errors.front());
  // 3 spans -> 3 B + 3 E, plus one thread_name metadata event.
  EXPECT_EQ(events, 7u);

  telemetry::JsonValue doc;
  std::string error;
  ASSERT_TRUE(telemetry::json_parse(json, doc, error)) << error;
  const telemetry::JsonValue* evs = doc.find("traceEvents");
  ASSERT_NE(evs, nullptr);
  int balance = 0;
  bool saw_arg = false;
  for (const telemetry::JsonValue& ev : evs->array) {
    const std::string& ph = ev.find("ph")->string;
    if (ph == "B") {
      ++balance;
      const telemetry::JsonValue* a = ev.find("args");
      if (a != nullptr && ev.find("name")->string == "test.leaf") {
        saw_arg = a->find("v")->number == 42.0;
      }
    } else if (ph == "E") {
      ASSERT_GT(balance, 0);
      --balance;
    }
  }
  EXPECT_EQ(balance, 0);
  EXPECT_TRUE(saw_arg);
  tracer.clear();
}

TEST(Trace, SpansNestAcrossParallelFor) {
  telemetry::Tracer& tracer = telemetry::Tracer::global();
  tracer.clear();
  tracer.set_enabled(true);
  {
    INSTA_TRACE_SCOPE("test.parallel_phase");
    util::ThreadPool::global().parallel_for_chunks(
        0, 10000,
        [](std::size_t lo, std::size_t hi) {
          INSTA_TRACE_SCOPE("test.chunk",
                            static_cast<std::int64_t>(hi - lo));
          volatile double sink = 0.0;
          for (std::size_t i = lo; i < hi; ++i) sink = sink + 1.0;
        },
        8);
  }
  tracer.set_enabled(false);

  const std::string json = tracer.chrome_trace_json();
  std::size_t events = 0;
  const telemetry::ValidationResult r =
      telemetry::validate_chrome_trace(json, &events);
  EXPECT_TRUE(r.ok) << (r.errors.empty() ? "" : r.errors.front());

  telemetry::JsonValue doc;
  std::string error;
  ASSERT_TRUE(telemetry::json_parse(json, doc, error)) << error;
  int chunks = 0;
  bool saw_phase = false;
  for (const telemetry::JsonValue& ev : doc.find("traceEvents")->array) {
    if (ev.find("ph")->string != "B") continue;
    const std::string& name = ev.find("name")->string;
    if (name == "test.chunk") ++chunks;
    if (name == "test.parallel_phase") saw_phase = true;
  }
  EXPECT_TRUE(saw_phase);
  EXPECT_GT(chunks, 0);  // worker threads recorded their own spans
  tracer.clear();
}

TEST(Trace, DisabledTracerRecordsNothing) {
  telemetry::Tracer& tracer = telemetry::Tracer::global();
  tracer.clear();
  tracer.set_enabled(false);
  { INSTA_TRACE_SCOPE("test.invisible"); }
  const std::string json = tracer.chrome_trace_json();
  EXPECT_EQ(json.find("test.invisible"), std::string::npos);
}

TEST(JsonParse, RoundTripsBasics) {
  telemetry::JsonValue doc;
  std::string error;
  ASSERT_TRUE(telemetry::json_parse(
      R"({"a": [1, 2.5, -3e2], "b": {"c": "x\ny"}, "d": true, "e": null})",
      doc, error))
      << error;
  ASSERT_TRUE(doc.is_object());
  EXPECT_DOUBLE_EQ(doc.find("a")->array[2].number, -300.0);
  EXPECT_EQ(doc.find("b")->find("c")->string, "x\ny");
  EXPECT_FALSE(telemetry::json_parse("{broken", doc, error));
  EXPECT_FALSE(error.empty());
}

TEST(Validate, RejectsMalformedTraces) {
  EXPECT_FALSE(telemetry::validate_chrome_trace("not json").ok);
  EXPECT_FALSE(telemetry::validate_chrome_trace(R"({"x": 1})").ok);
  // E without a matching B.
  EXPECT_FALSE(
      telemetry::validate_chrome_trace(
          R"({"traceEvents": [{"ph": "E", "pid": 1, "tid": 1, "ts": 0,)"
          R"( "name": "x"}]})")
          .ok);
  // Unclosed B.
  EXPECT_FALSE(
      telemetry::validate_chrome_trace(
          R"({"traceEvents": [{"ph": "B", "pid": 1, "tid": 1, "ts": 0,)"
          R"( "name": "x"}]})")
          .ok);
  EXPECT_TRUE(telemetry::validate_chrome_trace(R"({"traceEvents": []})").ok);
}

TEST(Validate, RejectsMalformedMetrics) {
  EXPECT_FALSE(telemetry::validate_metrics_json("[]").ok);
  EXPECT_FALSE(
      telemetry::validate_metrics_json(
          R"({"counters": {"c": -1}, "gauges": {}, "histograms": {}})")
          .ok);
  // count != sum(buckets).
  EXPECT_FALSE(
      telemetry::validate_metrics_json(
          R"({"counters": {}, "gauges": {}, "histograms": {"h":)"
          R"( {"bounds": [1.0], "buckets": [1, 2], "count": 4,)"
          R"( "sum": 3.0, "min": 0.5, "max": 2.0}}})")
          .ok);
  EXPECT_TRUE(
      telemetry::validate_metrics_json(
          R"({"counters": {"c": 3}, "gauges": {"g": 1.5}, "histograms": {}})")
          .ok);
}

TEST(Validate, WhatifSchema) {
  // The generation/corner-set stamp every whatif report must carry.
  const std::string stamp =
      R"("generation": 7, "corners": [{"name": "default",)"
      R"( "delay_scale": 1.0, "sigma_scale": 1.0}], )";
  // A complete scenario with setup + hold summaries validates.
  const std::string good =
      "{" + stamp +
      R"("scenarios": [{"label": "resize-0", "num_deltas": 4,)"
      R"( "frontier_pins": 12, "early_terminations": 3,)"
      R"( "endpoints_evaluated": 5, "overlay_bytes": 2048,)"
      R"( "setup": {"tns": -12.5, "wns": -3.25, "violations": 4},)"
      R"( "hold": {"tns": 0.0, "wns": 0.0, "violations": 0}}]})";
  std::size_t n = 0;
  EXPECT_TRUE(telemetry::validate_whatif_json(good, &n).ok);
  EXPECT_EQ(n, 1u);

  // Hold is optional; an empty batch is legal.
  EXPECT_TRUE(
      telemetry::validate_whatif_json("{" + stamp + R"("scenarios": []})", &n)
          .ok);
  EXPECT_EQ(n, 0u);

  EXPECT_FALSE(telemetry::validate_whatif_json("not json").ok);
  EXPECT_FALSE(telemetry::validate_whatif_json("[]").ok);
  EXPECT_FALSE(telemetry::validate_whatif_json(R"({"x": 1})").ok);
  // The stamps themselves are required; an unstamped report is rejected.
  EXPECT_FALSE(
      telemetry::validate_whatif_json(R"({"scenarios": []})").ok);
  EXPECT_FALSE(telemetry::validate_whatif_json(
                   R"({"generation": 7, "scenarios": []})")
                   .ok);
  // Bad corner entries are structural errors.
  EXPECT_FALSE(
      telemetry::validate_whatif_json(
          R"({"generation": 1, "corners": [], "scenarios": []})")
          .ok);
  EXPECT_FALSE(
      telemetry::validate_whatif_json(
          R"({"generation": 1, "corners": [{"name": "",)"
          R"( "delay_scale": 1.0, "sigma_scale": 1.0}], "scenarios": []})")
          .ok);
  EXPECT_FALSE(
      telemetry::validate_whatif_json(
          R"({"generation": 1, "corners": [{"name": "bad",)"
          R"( "delay_scale": -1.0, "sigma_scale": 1.0}], "scenarios": []})")
          .ok);
  // Positive TNS contradicts "sum of negative slacks".
  EXPECT_FALSE(
      telemetry::validate_whatif_json(
          "{" + stamp +
          R"("scenarios": [{"label": "s", "num_deltas": 0,)"
          R"( "frontier_pins": 0, "early_terminations": 0,)"
          R"( "endpoints_evaluated": 0, "overlay_bytes": 0,)"
          R"( "setup": {"tns": 5.0, "wns": 0.0, "violations": 0}}]})")
          .ok);
  // Missing counters and fractional violation counts are structural errors.
  EXPECT_FALSE(
      telemetry::validate_whatif_json(
          "{" + stamp +
          R"("scenarios": [{"label": "s",)"
          R"( "setup": {"tns": 0.0, "wns": 0.0, "violations": 0}}]})")
          .ok);
  EXPECT_FALSE(
      telemetry::validate_whatif_json(
          "{" + stamp +
          R"("scenarios": [{"label": "s", "num_deltas": 0,)"
          R"( "frontier_pins": 0, "early_terminations": 0,)"
          R"( "endpoints_evaluated": 0, "overlay_bytes": 0,)"
          R"( "setup": {"tns": 0.0, "wns": 0.0, "violations": 1.5}}]})")
          .ok);
}

TEST(Validate, WhatifSchemaPerCornerSummaries) {
  // Two stamped corners; per-corner summary arrays must match their count
  // and every element must be a well-formed summary.
  const std::string stamp =
      R"("generation": 3, "corners": [)"
      R"({"name": "fast", "delay_scale": 0.9, "sigma_scale": 0.95},)"
      R"( {"name": "slow", "delay_scale": 1.1, "sigma_scale": 1.05}], )";
  const auto doc = [&](const std::string& by_corner) {
    return "{" + stamp +
           R"("scenarios": [{"label": "s", "num_deltas": 1,)"
           R"( "frontier_pins": 0, "early_terminations": 0,)"
           R"( "endpoints_evaluated": 0, "overlay_bytes": 0,)"
           R"( "setup": {"tns": -2.0, "wns": -1.0, "violations": 1})" +
           by_corner + "}]}";
  };
  EXPECT_TRUE(telemetry::validate_whatif_json(doc("")).ok);
  EXPECT_TRUE(
      telemetry::validate_whatif_json(
          doc(R"(, "setup_by_corner": [)"
              R"({"tns": -1.0, "wns": -1.0, "violations": 1},)"
              R"( {"tns": -2.0, "wns": -1.5, "violations": 1}])"))
          .ok);
  // Wrong cardinality: one summary for two corners.
  EXPECT_FALSE(
      telemetry::validate_whatif_json(
          doc(R"(, "setup_by_corner": [)"
              R"({"tns": -1.0, "wns": -1.0, "violations": 1}])"))
          .ok);
  // Malformed element inside the per-corner array.
  EXPECT_FALSE(
      telemetry::validate_whatif_json(
          doc(R"(, "hold_by_corner": [{"tns": -1.0}, 42])"))
          .ok);
}

TEST(Validate, WhatifSchemaFailureModes) {
  // Builds a scenario with one field replaced (or dropped when the
  // replacement is empty), so each required field is probed in isolation.
  const auto scenario_with = [](const std::string& field,
                                const std::string& json) {
    std::vector<std::pair<std::string, std::string>> fields = {
        {"label", R"("s")"},
        {"num_deltas", "1"},
        {"frontier_pins", "2"},
        {"early_terminations", "0"},
        {"endpoints_evaluated", "3"},
        {"overlay_bytes", "64"},
        {"setup", R"({"tns": -1.0, "wns": -0.5, "violations": 1})"},
    };
    std::string body =
        R"({"generation": 1, "corners": [{"name": "default",)"
        R"( "delay_scale": 1.0, "sigma_scale": 1.0}], "scenarios": [{)";
    bool first = true;
    for (const auto& [name, value] : fields) {
      const std::string& v = name == field ? json : value;
      if (v.empty()) continue;
      if (!first) body += ", ";
      first = false;
      body += "\"" + name + "\": " + v;
    }
    body += "}]}";
    return body;
  };

  // The all-defaults document is valid (sanity for the helper).
  std::size_t n = 0;
  EXPECT_TRUE(telemetry::validate_whatif_json(scenario_with("", ""), &n).ok);
  EXPECT_EQ(n, 1u);

  // Each required field missing is its own structural error.
  for (const char* field :
       {"label", "num_deltas", "frontier_pins", "early_terminations",
        "endpoints_evaluated", "overlay_bytes", "setup"}) {
    const telemetry::ValidationResult r =
        telemetry::validate_whatif_json(scenario_with(field, ""));
    EXPECT_FALSE(r.ok) << "missing " << field;
    EXPECT_FALSE(r.errors.empty()) << "missing " << field;
  }

  // Wrong types are rejected even when the field is present.
  EXPECT_FALSE(
      telemetry::validate_whatif_json(scenario_with("label", "42")).ok);
  EXPECT_FALSE(
      telemetry::validate_whatif_json(scenario_with("num_deltas", R"("4")"))
          .ok);
  EXPECT_FALSE(
      telemetry::validate_whatif_json(scenario_with("num_deltas", "-1")).ok);
  EXPECT_FALSE(
      telemetry::validate_whatif_json(scenario_with("overlay_bytes", "1.5"))
          .ok);
  EXPECT_FALSE(
      telemetry::validate_whatif_json(scenario_with("setup", "[]")).ok);
  EXPECT_FALSE(telemetry::validate_whatif_json(
                   scenario_with("setup", R"({"tns": -1.0, "wns": -0.5})"))
                   .ok);
  EXPECT_FALSE(
      telemetry::validate_whatif_json(
          scenario_with(
              "setup", R"({"tns": "x", "wns": -0.5, "violations": 1})"))
          .ok);

  // Scenario-list shape: must be an array of objects under "scenarios".
  const std::string stamp =
      R"({"generation": 1, "corners": [{"name": "default",)"
      R"( "delay_scale": 1.0, "sigma_scale": 1.0}], )";
  EXPECT_FALSE(
      telemetry::validate_whatif_json(stamp + R"("scenarios": null})").ok);
  EXPECT_FALSE(
      telemetry::validate_whatif_json(stamp + R"("scenarios": {}})").ok);
  EXPECT_FALSE(
      telemetry::validate_whatif_json(stamp + R"("scenarios": [1]})").ok);
  // Empty list is legal and reports zero scenarios.
  n = 99;
  EXPECT_TRUE(
      telemetry::validate_whatif_json(stamp + R"("scenarios": []})", &n).ok);
  EXPECT_EQ(n, 0u);
}

TEST(Validate, FlightrecSchema) {
  const char* good =
      R"({"total": 3, "events": [)"
      R"({"ts_us": 1.5, "type": "admit", "id": 11, "generation": 0,)"
      R"( "detail": 3},)"
      R"({"ts_us": 2.0, "type": "enqueue", "id": 11, "generation": 0,)"
      R"( "detail": 1},)"
      R"({"ts_us": 1.9, "type": "reply", "id": 11, "generation": 5,)"
      R"( "detail": 0}]})";
  std::size_t n = 0;
  const telemetry::ValidationResult r =
      telemetry::validate_flightrec_json(good, &n);
  EXPECT_TRUE(r.ok) << (r.errors.empty() ? "" : r.errors.front());
  // Note the third event's ts_us regressing: claim order is not timestamp
  // order for a writer preempted between its ticket and its clock sample.
  EXPECT_EQ(n, 3u);

  // Empty document is legal.
  EXPECT_TRUE(
      telemetry::validate_flightrec_json(R"({"total": 0, "events": []})").ok);

  EXPECT_FALSE(telemetry::validate_flightrec_json("not json").ok);
  EXPECT_FALSE(telemetry::validate_flightrec_json("[]").ok);
  EXPECT_FALSE(
      telemetry::validate_flightrec_json(R"({"events": []})").ok);
  EXPECT_FALSE(
      telemetry::validate_flightrec_json(R"({"total": -1, "events": []})").ok);
  EXPECT_FALSE(
      telemetry::validate_flightrec_json(R"({"total": 0.5, "events": []})")
          .ok);
  EXPECT_FALSE(
      telemetry::validate_flightrec_json(R"({"total": 0, "events": {}})").ok);
  // Per-event failures: unknown type, negative ts, fractional id.
  EXPECT_FALSE(telemetry::validate_flightrec_json(
                   R"({"total": 1, "events": [{"ts_us": 1.0,)"
                   R"( "type": "teleport", "id": 1, "generation": 0,)"
                   R"( "detail": 0}]})")
                   .ok);
  EXPECT_FALSE(telemetry::validate_flightrec_json(
                   R"({"total": 1, "events": [{"ts_us": -1.0,)"
                   R"( "type": "admit", "id": 1, "generation": 0,)"
                   R"( "detail": 0}]})")
                   .ok);
  EXPECT_FALSE(telemetry::validate_flightrec_json(
                   R"({"total": 1, "events": [{"ts_us": 1.0,)"
                   R"( "type": "admit", "id": 1.5, "generation": 0,)"
                   R"( "detail": 0}]})")
                   .ok);
}

TEST(Validate, ServeReportSchema) {
  const auto report_with = [](const std::string& field,
                              const std::string& json) {
    std::vector<std::pair<std::string, std::string>> fields = {
        {"clients", "4"},
        {"requests_per_client", "50"},
        {"ok", "198"},
        {"shed", "2"},
        {"rejected", "0"},
        {"failed", "0"},
        {"commits", "1"},
        {"wall_sec", "1.5"},
        {"qps", "133.3"},
        {"latency_ms",
         R"({"p50": 1.0, "p95": 2.0, "p99": 3.0, "max": 4.0})"},
    };
    std::string body = "{";
    bool first = true;
    for (const auto& [name, value] : fields) {
      const std::string& v = name == field ? json : value;
      if (v.empty()) continue;
      if (!first) body += ", ";
      first = false;
      body += "\"" + name + "\": " + v;
    }
    body += "}";
    return body;
  };

  // The all-defaults report is valid (sanity for the helper).
  const telemetry::ValidationResult r =
      telemetry::validate_serve_report(report_with("", ""));
  EXPECT_TRUE(r.ok) << (r.errors.empty() ? "" : r.errors.front());

  EXPECT_FALSE(telemetry::validate_serve_report("not json").ok);
  EXPECT_FALSE(telemetry::validate_serve_report("[]").ok);

  // Each required field missing is a structural error.
  for (const char* field :
       {"clients", "requests_per_client", "ok", "shed", "rejected", "failed",
        "commits", "wall_sec", "qps", "latency_ms"}) {
    EXPECT_FALSE(telemetry::validate_serve_report(report_with(field, "")).ok)
        << "missing " << field;
  }

  // Type and range violations.
  EXPECT_FALSE(
      telemetry::validate_serve_report(report_with("clients", "-1")).ok);
  EXPECT_FALSE(
      telemetry::validate_serve_report(report_with("ok", "1.5")).ok);
  EXPECT_FALSE(
      telemetry::validate_serve_report(report_with("qps", "-2.0")).ok);
  EXPECT_FALSE(
      telemetry::validate_serve_report(report_with("latency_ms", "[]")).ok);
  // Percentiles must be non-decreasing and non-negative.
  EXPECT_FALSE(telemetry::validate_serve_report(
                   report_with("latency_ms", R"({"p50": 3.0, "p95": 2.0,)"
                                             R"( "p99": 4.0, "max": 5.0})"))
                   .ok);
  EXPECT_FALSE(telemetry::validate_serve_report(
                   report_with("latency_ms", R"({"p50": -1.0, "p95": 2.0,)"
                                             R"( "p99": 3.0, "max": 4.0})"))
                   .ok);
  EXPECT_FALSE(telemetry::validate_serve_report(
                   report_with("latency_ms",
                               R"({"p50": 1.0, "p95": 2.0, "p99": 3.0})"))
                   .ok);
}

TEST(LogSink, CaptureSinkReceivesLines) {
  auto capture = std::make_shared<util::CaptureLogSink>();
  std::shared_ptr<util::LogSink> previous = util::set_log_sink(capture);
  const util::LogLevel old_level = util::log_level();
  util::set_log_level(util::LogLevel::kDebug);

  util::log(util::LogLevel::kInfo, "hello 42");
  util::log(util::LogLevel::kWarn, "watch out");
  util::set_log_level(util::LogLevel::kError);
  util::log(util::LogLevel::kInfo, "filtered away");

  const auto lines = capture->lines();
  ASSERT_EQ(lines.size(), 2u);
  EXPECT_EQ(lines[0].first, util::LogLevel::kInfo);
  EXPECT_NE(lines[0].second.find("hello 42"), std::string::npos);
  EXPECT_NE(lines[0].second.find("INFO"), std::string::npos);
  EXPECT_EQ(lines[1].first, util::LogLevel::kWarn);
  EXPECT_NE(lines[1].second.find("watch out"), std::string::npos);

  capture->clear();
  EXPECT_TRUE(capture->lines().empty());

  util::set_log_level(old_level);
  util::set_log_sink(std::move(previous));
}

TEST(LogSink, ParseLogLevel) {
  EXPECT_EQ(util::parse_log_level("debug"), util::LogLevel::kDebug);
  EXPECT_EQ(util::parse_log_level("INFO"), util::LogLevel::kInfo);
  EXPECT_EQ(util::parse_log_level("Warn"), util::LogLevel::kWarn);
  EXPECT_EQ(util::parse_log_level("warning"), util::LogLevel::kWarn);
  EXPECT_EQ(util::parse_log_level("error"), util::LogLevel::kError);
  EXPECT_EQ(util::parse_log_level("off"), util::LogLevel::kOff);
  EXPECT_EQ(util::parse_log_level("none"), util::LogLevel::kOff);
  EXPECT_FALSE(util::parse_log_level("loud").has_value());
}

}  // namespace
}  // namespace insta
