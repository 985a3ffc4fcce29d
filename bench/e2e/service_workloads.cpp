// The service workloads: real `insta_cli serve` processes driven over Unix
// sockets by one bench thread with at most four connections.
//
//   whatif_serve  one server, every request a single-scenario what-if with a
//                 distinct delta-set, so the what-if cache never hits and
//                 each request pays parse -> admission -> micro-batch ->
//                 ScenarioBatch eval -> serialize. Phase A is an open loop at
//                 a fixed rate well below capacity (latency = service time,
//                 not a growing queue); phase B is a closed loop with four
//                 connections (capacity).
//   fleet_mixed   a writer plus one --replica-of replica. In phase A an
//                 editor commits a fresh ECO on the writer every 250 ms while
//                 three readers send an open-loop read mix to the replica:
//                 commits bump the generation (invalidating the replica's
//                 cache) and ship as deltas the replica applies under its
//                 exclusive engine lock. Phase B commits a fixed batch of
//                 ECOs back to back (commit throughput).

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <iterator>
#include <memory>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "common.hpp"
#include "core/engine.hpp"
#include "core/scenario_batch.hpp"
#include "gen/logic_block.hpp"
#include "gen/presets.hpp"
#include "gen/tune.hpp"
#include "io/design_io.hpp"
#include "ref/golden_sta.hpp"
#include "resizes.hpp"
#include "spans.hpp"
#include "telemetry/json.hpp"
#include "timing/delay_calc.hpp"
#include "timing/graph.hpp"
#include "util/rng.hpp"
#include "wire.hpp"

namespace insta::e2e {

namespace {

using telemetry::JsonValue;

constexpr int kSetups = 3;  ///< spawns per run; setup_s is their median
constexpr double kReadySec = 90.0;    ///< spawn-to-"serving on" limit
constexpr double kTimeoutSec = 10.0;  ///< a request unanswered this long failed
constexpr double kPhaseAShare = 0.6;  ///< open-loop share of --seconds
/// whatif_serve's open-loop rate, about a quarter of its closed-loop
/// capacity on the service design (see README.md).
constexpr double kWhatifRate = 60.0;
/// whatif_serve's closed-loop requests per second of its phase-B share:
/// about today's capacity, so phase B lasts about its share.
constexpr double kClosedLoopWork = 250.0;
constexpr double kReadRate = 200.0;   ///< fleet_mixed reader rate, q/s
constexpr double kEditHz = 4.0;  ///< fleet_mixed phase-A commits per second
/// fleet_mixed's back-to-back commits per second of its phase-B share:
/// about today's rate, so phase B lasts about its share.
constexpr double kEditWork = 230.0;
constexpr std::size_t kWhatifPool = 16;

enum Kind : int { kWhatif, kSummary, kEndpoints, kBegin, kAnnotate, kCommit };

/// The service workloads' design: the Fig. 7 block scaled to a third, so a
/// server (whose start-up runs the unpruned golden engine) starts in about
/// 1.3 s with about 1.1 GB resident instead of 8 s and 6 GB.
gen::LogicBlockSpec service_spec(bool smoke) {
  gen::LogicBlockSpec s = gen::fig7_block_spec();
  s.name = smoke ? "block-2-like-smoke" : "block-2-like-third";
  s.num_gates = smoke ? 1500 : 10000;
  s.num_ffs = smoke ? 130 : 870;
  if (smoke) s.depth = 12;
  return s;
}

/// Bench-side inputs: the design file the servers load, and the generated
/// design with its delay calculator, the source of every ECO delta-set.
struct Inputs {
  std::string inet;
  gen::GeneratedDesign gd;
  std::unique_ptr<timing::TimingGraph> graph;
  std::unique_ptr<timing::DelayCalculator> calc;
  timing::ArcDelays delays;
};

void make_inputs(const RunOptions& opt, Inputs& in) {
  in.gd = gen::build_logic_block(service_spec(opt.smoke));
  in.graph = std::make_unique<timing::TimingGraph>(
      *in.gd.design, in.gd.constraints.clock_root);
  in.calc = std::make_unique<timing::DelayCalculator>(*in.gd.design, *in.graph);
  in.calc->compute_all(in.delays);
  gen::tune_clock_period(*in.graph, in.gd.constraints, in.delays, 0.08);
  in.inet = opt.run_dir + "/design.inet";
  io::save_design_file(*in.gd.design, in.gd.constraints, in.inet);
}

/// estimate_eco delta-sets of `count` distinct resizes spread over depth
/// (see depth_spread_resizes for `skip_shallow`).
std::vector<std::vector<timing::ArcDelta>> eco_sets(const Inputs& in,
                                                    std::uint64_t seed,
                                                    std::size_t count,
                                                    double skip_shallow = 0.0) {
  std::vector<std::vector<timing::ArcDelta>> out;
  for (const gen::Resize& r : depth_spread_resizes(*in.gd.design, *in.graph,
                                                   seed, count, skip_shallow)) {
    out.push_back(in.calc->estimate_eco(r.cell, r.new_libcell));
  }
  return out;
}

std::string deltas_json(const std::vector<timing::ArcDelta>& ds) {
  std::string s = "[";
  for (std::size_t i = 0; i < ds.size(); ++i) {
    const timing::ArcDelta& d = ds[i];
    s += (i == 0 ? "{\"arc\": " : ", {\"arc\": ") + std::to_string(d.arc) +
         ", \"mu\": [" + telemetry::json_number(d.mu[0]) + ", " +
         telemetry::json_number(d.mu[1]) + "], \"sigma\": [" +
         telemetry::json_number(d.sigma[0]) + ", " +
         telemetry::json_number(d.sigma[1]) + "]}";
  }
  return s + "]";
}

std::string whatif_line(const std::vector<timing::ArcDelta>& ds) {
  return "{\"op\": \"whatif\", \"scenarios\": [{\"deltas\": " +
         deltas_json(ds) + "}]}";
}

/// The state `insta_cli serve` builds at start-up (unpruned golden, K=32,
/// one corner), rebuilt in-process from the same design file.
struct ServerWorld {
  io::LoadedDesign loaded;
  std::unique_ptr<timing::TimingGraph> graph;
  std::unique_ptr<timing::DelayCalculator> calc;
  timing::ArcDelays delays;
  std::unique_ptr<ref::GoldenSta> sta;
  std::unique_ptr<core::Engine> engine;
};

std::unique_ptr<ServerWorld> load_server_world(const std::string& inet,
                                               Spans& spans) {
  auto w = std::make_unique<ServerWorld>();
  const Spans::Scope root(spans, "bench.setup");
  {
    const Spans::Scope s(spans, "io.load");
    w->loaded = io::load_design_file(inet);
  }
  {
    const Spans::Scope s(spans, "timing.delay_calc");
    w->graph = std::make_unique<timing::TimingGraph>(
        *w->loaded.design, w->loaded.constraints.clock_root);
    w->calc =
        std::make_unique<timing::DelayCalculator>(*w->loaded.design, *w->graph);
    w->calc->compute_all(w->delays);
  }
  {
    const Spans::Scope s(spans, "ref.golden");
    w->sta = std::make_unique<ref::GoldenSta>(*w->graph, w->loaded.constraints,
                                              w->delays, ref::GoldenOptions{});
    w->sta->update_full();
  }
  {
    const Spans::Scope s(spans, "core.init");
    w->engine = std::make_unique<core::Engine>(*w->sta, core::EngineOptions{});
  }
  {
    const Spans::Scope s(spans, "core.first_forward");
    w->engine->run_forward();
  }
  return w;
}

/// One decoded reply: status, snapshot version and the server_us parts.
struct Reply {
  JsonValue doc;
  bool ok = false;
  std::string code;  ///< error code when !ok
  std::uint64_t version = 0;
  double queue = 0, batch = 0, eval = 0, serialize = 0, total = 0;  ///< us
  [[nodiscard]] const JsonValue* result() const { return doc.find("result"); }
};

double num(const JsonValue* obj, std::string_view key) {
  const JsonValue* v = obj != nullptr ? obj->find(key) : nullptr;
  return v != nullptr && v->is_number() ? v->number : 0.0;
}

bool parse_reply(std::string_view line, Reply& r) {
  std::string err;
  if (!telemetry::json_parse(line, r.doc, err) || !r.doc.is_object()) {
    return false;
  }
  const JsonValue* ok = r.doc.find("ok");
  r.ok = ok != nullptr && ok->boolean;
  if (!r.ok) {
    const JsonValue* e = r.doc.find("error");
    const JsonValue* code = e != nullptr ? e->find("code") : nullptr;
    r.code = code != nullptr && code->is_string() ? code->string : "?";
  }
  r.version = static_cast<std::uint64_t>(num(r.result(), "version"));
  const JsonValue* us = r.doc.find("server_us");
  r.queue = num(us, "queue");
  r.batch = num(us, "batch");
  r.eval = num(us, "eval");
  r.serialize = num(us, "serialize");
  r.total = num(us, "total");
  return true;
}

/// The reply's result body, verbatim (between "result": and the server_us
/// member the dispatcher appends) — the unit of the byte-identity check.
std::string_view result_body(std::string_view reply) {
  const std::size_t a = reply.find("\"result\": ");
  const std::size_t b = reply.rfind(", \"server_us\": {");
  if (a == std::string_view::npos || b == std::string_view::npos || b < a) {
    return {};
  }
  return reply.substr(a + 10, b - a - 10);
}

/// Server-side parts and round trip of one answered request.
struct Sample {
  double latency_ms = 0;  ///< from the scheduled send (open loop)
  double rtt_ms = 0;      ///< from the actual send
  double queue = 0, batch = 0, eval = 0, serialize = 0, total = 0;  ///< us
};

/// Failure accounting shared by both service workloads.
struct Tally {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::uint64_t shed = 0;

  /// Counts one reply; true when it is a usable success.
  bool count(const Reply& r, bool parsed, double rtt_ms) {
    if (!parsed || !r.ok || rtt_ms > kTimeoutSec * 1e3) {
      ++failed;
      if (parsed && r.code == "overloaded") ++shed;
      return false;
    }
    return true;
  }
  void lost(std::size_t n) { failed += n; }
};

/// Records a request as a client span with its server parts laid out inside
/// it: client.request's self time is the wire (RTT minus server total) and
/// serve.request's self time is dispatch (total minus the named parts).
void trace_request(Spans& spans, const Outstanding& o, std::int64_t recv_ns,
                   const Reply& r, std::size_t conn, std::uint64_t req) {
  if (!spans.enabled()) return;
  const auto track = static_cast<std::int32_t>(conn);
  const std::int32_t root =
      spans.add("client.request", o.sent_ns, recv_ns, -1, req, track);
  const auto total_ns = static_cast<std::int64_t>(r.total * 1e3);
  const std::int64_t wire_ns = recv_ns - o.sent_ns - total_ns;
  std::int64_t t = o.sent_ns + wire_ns / 2;
  const std::int32_t srv =
      spans.add("serve.request", t, t + total_ns, root, req, track);
  const std::pair<const char*, double> parts[] = {{"serve.queue", r.queue},
                                                  {"serve.batch", r.batch},
                                                  {"serve.eval", r.eval},
                                                  {"serve.serialize",
                                                   r.serialize}};
  for (const auto& [name, us] : parts) {
    if (us <= 0.0) continue;
    const auto d = static_cast<std::int64_t>(us * 1e3);
    spans.add(name, t, t + d, srv, req, track);
    t += d;
  }
}

/// p50/p99 of each server_us part and of the wire time over `samples`.
void report_server_parts(std::vector<Sample> samples, Result& res) {
  const auto pct = [&](const char* name, auto field) {
    std::vector<double> v;
    for (const Sample& s : samples) v.push_back(field(s));
    res.set(std::string(name) + "_p50", quantile(v, 0.5));
    res.set(std::string(name) + "_p99", quantile(v, 0.99));
  };
  pct("serve.queue_us", [](const Sample& s) { return s.queue; });
  pct("serve.batch_us", [](const Sample& s) { return s.batch; });
  pct("serve.eval_us", [](const Sample& s) { return s.eval; });
  pct("serve.serialize_us", [](const Sample& s) { return s.serialize; });
  pct("serve.dispatch_us", [](const Sample& s) {
    return s.total - s.queue - s.batch - s.eval - s.serialize;
  });
  pct("serve.total_us", [](const Sample& s) { return s.total; });
  pct("client.wire_us",
      [](const Sample& s) { return s.rtt_ms * 1e3 - s.total; });
}

Sample sample_of(const Outstanding& o, std::int64_t recv_ns, const Reply& r) {
  Sample s;
  s.latency_ms = static_cast<double>(recv_ns - o.due_ns) * 1e-6;
  s.rtt_ms = static_cast<double>(recv_ns - o.sent_ns) * 1e-6;
  s.queue = r.queue;
  s.batch = r.batch;
  s.eval = r.eval;
  s.serialize = r.serialize;
  s.total = r.total;
  return s;
}

/// One blocking round trip on a control connection, parsed.
bool control(Conn& c, const std::string& line, Reply& r,
             std::string* raw = nullptr) {
  std::string reply;
  if (!c.request(line, reply, kTimeoutSec)) return false;
  if (raw != nullptr) *raw = reply;
  return parse_reply(reply, r) && r.ok;
}

/// Opens `n` connections to `socket`; false if any fails.
bool connect_all(const std::string& socket, std::size_t n,
                 std::vector<Conn>& out) {
  for (std::size_t i = 0; i < n; ++i) {
    out.emplace_back();
    if (!out.back().connect(socket)) return false;
  }
  return true;
}

/// The open-loop run is valid only if the sender kept its schedule: at the
/// highest percentile with ten sends beyond it (p99 from 1,000 sends on),
/// sends left no later than one interval after they were due.
void check_schedule(const EventLoop& d, double rate, Result& res) {
  std::vector<double> late = d.lateness_ms();
  const double n = static_cast<double>(late.size());
  const double q = std::clamp(1.0 - 10.0 / n, 0.5, 0.99);
  const double at_q = quantile(late, q);
  const double interval_ms = 1e3 / rate;
  res.set("client.send_late_p99_ms", quantile(late, 0.99));
  char detail[128];
  std::snprintf(detail, sizeof(detail),
                "p%.1f sender lateness %.3f ms over %zu sends, "
                "interval %.3f ms",
                q * 100.0, at_q, late.size(), interval_ms);
  res.check("open_loop_on_schedule", at_q <= interval_ms, detail);
}

/// Spawns one set of servers: kSetups times in all, timing each start until
/// every server prints "serving on"; the last set is kept.
template <typename SpawnFn>
bool spawn_timed(SpawnFn spawn, std::vector<double>& setup_s) {
  for (int i = 0; i < kSetups; ++i) {
    const std::int64_t t0 = now_ns();
    if (!spawn(i == kSetups - 1)) return false;
    setup_s.push_back(static_cast<double>(now_ns() - t0) * 1e-9);
  }
  return true;
}

}  // namespace

// ---- whatif_serve -----------------------------------------------------------

void run_whatif_serve(const RunOptions& opt, Result& res) {
  Spans spans(opt.trace);
  Inputs in;
  make_inputs(opt, in);
  const double t_a = opt.seconds * kPhaseAShare;
  const double t_b = opt.seconds - t_a;
  // Every request gets its own delta-set. Phase A sends n_a of them at the
  // open-loop rate; phase B sends the other n_b as fast as four connections
  // are answered (about t_b at today's capacity). The population is fixed;
  // the seed orders each phase's share.
  const auto n_a = static_cast<std::size_t>(kWhatifRate * t_a);
  const auto n_b = static_cast<std::size_t>(kClosedLoopWork * t_b);
  constexpr std::size_t kConns = 4;
  const auto sets = eco_sets(in, kPopulationSeed, n_a + n_b + kConns);
  std::vector<std::size_t> seq = seeded_order(n_a, opt.seed);
  for (const std::size_t i : seeded_order(n_b, opt.seed + 1)) {
    seq.push_back(n_a + i);
  }
  std::vector<std::string> lines;
  lines.reserve(seq.size());
  for (const std::size_t i : seq) lines.push_back(whatif_line(sets[i]));
  std::printf("whatif_serve: %zu pins, %zu distinct delta-sets\n",
              in.gd.design->num_pins(), sets.size());

  if (opt.trace) {
    // The server's start-up replayed in-process, layer by layer.
    load_server_world(in.inet, spans).reset();
    report_setup_layers(spans, res);
  }

  const std::string sock = opt.run_dir + "/w.sock";
  std::unique_ptr<ServerProcess> server;
  std::vector<double> setup_s;
  const bool up = spawn_timed(
      [&](bool keep) {
        server = std::make_unique<ServerProcess>(
            opt.cli,
            std::vector<std::string>{"--in", in.inet, "--socket", sock,
                                     "--max-seconds", "170"},
            opt.run_dir + "/writer.log");
        if (!server->wait_ready(kReadySec)) return false;
        return keep || server->stop(sock, kTimeoutSec);
      },
      setup_s);
  std::vector<Conn> conns;
  if (up) res.set("setup_rss_mb", server->peak_rss_mb());
  if (!up || !connect_all(sock, kConns, conns)) {
    res.check("servers_start", false, "see " + opt.run_dir + "/writer.log");
    return;
  }
  // Warm-up, untimed: one what-if per connection opens its session and runs
  // every lazily initialized piece of the request path once. Its delta-sets
  // lie outside the measured population.
  for (std::size_t c = 0; c < kConns; ++c) {
    Reply r;
    (void)control(conns[c], whatif_line(sets[n_a + n_b + c]), r);
  }

  Tally tally;
  std::vector<Sample> phase_a;
  std::vector<double> lat_a;
  // Every 16th request is re-evaluated in-process after the timed phases.
  std::vector<std::size_t> audit_idx;
  std::vector<core::SlackSummary> audit_reply;
  std::uint64_t audit_unparsed = 0;
  std::uint64_t frontier = 0, early = 0, overlay = 0, results = 0;
  std::size_t next = 0;
  EventLoop d(conns);
  // Returns whether the reply was a usable success.
  const auto on_reply = [&](bool open_loop, std::size_t conn,
                            const Outstanding& o, std::string_view line,
                            std::int64_t recv) {
    Reply r;
    const bool parsed = parse_reply(line, r);
    const Sample s = sample_of(o, recv, r);
    if (!tally.count(r, parsed, s.rtt_ms)) return false;
    const JsonValue* rs = r.result() != nullptr ? r.result()->find("results")
                                                : nullptr;
    const JsonValue* r0 =
        rs != nullptr && rs->is_array() && !rs->array.empty() ? &rs->array[0]
                                                              : nullptr;
    if (o.tag % 16 == 0) {
      const JsonValue* setup = r0 != nullptr ? r0->find("setup") : nullptr;
      if (setup == nullptr) {
        ++audit_unparsed;
      } else {
        audit_idx.push_back(o.tag);
        audit_reply.push_back({num(setup, "tns"), num(setup, "wns"),
                               static_cast<int>(num(setup, "violations"))});
      }
    }
    if (!open_loop) return true;
    phase_a.push_back(s);
    lat_a.push_back(s.latency_ms);
    frontier += static_cast<std::uint64_t>(num(r0, "frontier_pins"));
    early += static_cast<std::uint64_t>(num(r0, "early_terminations"));
    overlay += static_cast<std::uint64_t>(num(r0, "overlay_bytes"));
    ++results;
    trace_request(spans, o, recv, r, conn, o.tag + 1);
    return true;
  };

  // Phase A: open loop at a fixed rate, to an idle connection when there is
  // one (a busy one otherwise: requests pipeline, latency still counts from
  // the scheduled send).
  const std::int64_t a0 = now_ns();
  const std::int64_t a_end = a0 + static_cast<std::int64_t>(t_a * 1e9);
  d.every(a0, static_cast<std::int64_t>(1e9 / kWhatifRate),
          [&](std::int64_t due) {
            if (next >= n_a) return;
            ++tally.attempted;
            d.send(d.least_loaded(0, conns.size()), lines[next], kWhatif,
                   seq[next], due);
            ++next;
          });
  tally.lost(d.run(a_end, kTimeoutSec,
                   [&](std::size_t c, const Outstanding& o,
                       std::string_view line, std::int64_t recv) {
                     on_reply(true, c, o, line, recv);
                   }));
  check_schedule(d, kWhatifRate, res);
  d.clear_schedules();

  // Phase B: closed loop, one request in flight per connection, until the
  // phase's share is answered (or a generous deadline passes).
  const std::int64_t b0 = now_ns();
  std::int64_t b_last = b0;
  std::uint64_t done_b = 0;
  const auto send_next = [&](std::size_t c) {
    if (next >= lines.size()) return;
    ++tally.attempted;
    d.send(c, lines[next], kWhatif, seq[next], now_ns());
    ++next;
  };
  for (std::size_t c = 0; c < conns.size(); ++c) send_next(c);
  tally.lost(d.run(b0 + static_cast<std::int64_t>((3.0 * t_b + 10.0) * 1e9),
                   kTimeoutSec,
                   [&](std::size_t c, const Outstanding& o,
                       std::string_view line, std::int64_t recv) {
                     if (on_reply(false, c, o, line, recv)) ++done_b;
                     b_last = recv;
                     send_next(c);
                   }));
  const double b_sec = static_cast<double>(b_last - b0) * 1e-9;

  Reply st;
  const bool have_stats = control(conns[0], "{\"op\": \"stats\"}", st);
  const JsonValue* sr = st.result();
  const JsonValue* cache = sr != nullptr ? sr->find("whatif_cache") : nullptr;
  const double cache_hits = have_stats ? num(cache, "hits") : -1.0;
  res.set("run.peak_rss_mb", server->peak_rss_mb());
  conns.clear();
  const bool clean_exit = server->stop(sock, kTimeoutSec);
  server.reset();

  // Gate: every 16th reply equals an in-process ScenarioBatch evaluation of
  // the same delta-set on the same design file, bit for bit.
  std::uint64_t mismatches = audit_unparsed;
  {
    Spans off(false);
    const auto world = load_server_world(in.inet, off);
    core::ScenarioBatch batch(*world->engine);
    std::vector<std::vector<timing::ArcDelta>> scen;
    for (const std::size_t i : audit_idx) scen.push_back(sets[i]);
    const std::vector<core::ScenarioResult> ref = batch.evaluate(scen);
    for (std::size_t i = 0; i < ref.size(); ++i) {
      if (!(ref[i].setup == audit_reply[i])) ++mismatches;
    }
  }
  tally.failed += mismatches;
  res.check("whatif_matches_in_process",
            mismatches == 0 && !audit_idx.empty(),
            std::to_string(mismatches) + " of " +
                std::to_string(audit_idx.size() + audit_unparsed) +
                " audited replies differ");
  res.check("whatif_cache_bypassed", cache_hits == 0.0,
            "cache hits " + std::to_string(cache_hits));
  res.check("servers_exit_cleanly", clean_exit, "writer shutdown");

  res.attempted = tally.attempted;
  res.failed = tally.failed;
  res.samples["op"] = lat_a.size();
  res.samples["closed_loop"] = done_b;
  res.set("setup_s", median(setup_s));
  res.set("op_p50_ms", quantile(lat_a, 0.5));
  res.set("op_p90_ms", quantile(lat_a, 0.9));
  res.set("ops_per_s", static_cast<double>(done_b) / b_sec);

  if (!opt.trace) return;
  report_server_parts(phase_a, res);
  double rtt_ms = 0.0;
  for (const Sample& s : phase_a) rtt_ms += s.rtt_ms;
  check_layers_sum(spans, "client.request", rtt_ms, res);
  const auto ratio = [](double a, double b) { return b > 0.0 ? a / b : 0.0; };
  res.set("core.scenario_frontier_pins", ratio(frontier, results));
  res.set("core.scenario_early_term_ratio", ratio(early, frontier));
  res.set("core.overlay_kb", ratio(overlay, results) / 1024.0);
  const double batches = num(sr, "batches");
  res.set("serve.batches", batches);
  res.set("serve.mean_occupancy", ratio(num(sr, "whatif_scenarios"), batches));
  res.set("serve.max_occupancy", num(sr, "max_batch_occupancy"));
  res.set("serve.shed", static_cast<double>(tally.shed));
  res.set("replica.cache_hits", cache_hits);
  if (!spans.write_chrome(opt.trace_path)) {
    res.check("trace_written", false, "cannot write " + opt.trace_path);
  }
}

// ---- fleet_mixed ------------------------------------------------------------

void run_fleet_mixed(const RunOptions& opt, Result& res) {
  Spans spans(opt.trace);
  Inputs in;
  make_inputs(opt, in);
  const double t_a = opt.seconds * kPhaseAShare;
  const double t_b = opt.seconds - t_a;
  // Readers draw what-ifs from one fixed pool, so the replica's cache is
  // used between commits; phase A commits one fresh ECO per 250-ms slot.
  // Both resize cells in the deepest third of the logic, so eval work per
  // request stays small and the replica and transaction paths carry the
  // load. Phase B's batch spans every depth, so each commit does real
  // propagation work and the commit rate is not set by socket round trips
  // alone. Every population is fixed; the seed orders the ECOs.
  constexpr double kDeepThird = 2.0 / 3.0;
  const auto pool = eco_sets(in, kPopulationSeed, kWhatifPool, kDeepThird);
  const auto n_ea = static_cast<std::size_t>(std::ceil(t_a * kEditHz));
  const auto n_eb = static_cast<std::size_t>(kEditWork * t_b);
  std::vector<std::vector<timing::ArcDelta>> ecos;
  {
    auto slots = eco_sets(in, kPopulationSeed + 1, n_ea, kDeepThird);
    for (const std::size_t i : seeded_order(n_ea, opt.seed)) {
      ecos.push_back(std::move(slots[i]));
    }
    auto batch = eco_sets(in, kPopulationSeed + 2, n_eb);
    for (const std::size_t i : seeded_order(n_eb, opt.seed + 1)) {
      ecos.push_back(std::move(batch[i]));
    }
  }
  std::vector<std::string> pool_lines;
  for (const auto& s : pool) pool_lines.push_back(whatif_line(s));
  std::printf("fleet_mixed: %zu pins, %zu pooled what-ifs, %zu ECOs\n",
              in.gd.design->num_pins(), pool.size(), ecos.size());

  if (opt.trace) {
    load_server_world(in.inet, spans).reset();
    report_setup_layers(spans, res);
  }

  const std::string wsock = opt.run_dir + "/w.sock";
  const std::string rsock = opt.run_dir + "/r.sock";
  std::unique_ptr<ServerProcess> writer, replica;
  std::vector<double> setup_s;
  const bool up = spawn_timed(
      [&](bool keep) {
        // Both start at once; the replica retries its bootstrap until the
        // writer answers, as a fleet launcher would run them.
        writer = std::make_unique<ServerProcess>(
            opt.cli,
            std::vector<std::string>{"--in", in.inet, "--socket", wsock,
                                     "--max-seconds", "170"},
            opt.run_dir + "/writer.log");
        replica = std::make_unique<ServerProcess>(
            opt.cli,
            std::vector<std::string>{"--in", in.inet, "--socket", rsock,
                                     "--replica-of", "unix:" + wsock,
                                     "--max-seconds", "170"},
            opt.run_dir + "/replica.log");
        if (!writer->wait_ready(kReadySec) || !replica->wait_ready(kReadySec)) {
          return false;
        }
        return keep || (replica->stop(rsock, kTimeoutSec) &&
                        writer->stop(wsock, kTimeoutSec));
      },
      setup_s);
  // Connections 0-2 read from the replica; 3 edits on the writer.
  constexpr std::size_t kReaders = 3;
  constexpr std::size_t kEditor = 3;
  std::vector<Conn> conns;
  if (up) {
    res.set("setup_rss_mb", writer->peak_rss_mb() + replica->peak_rss_mb());
  }
  if (!up || !connect_all(rsock, kReaders, conns) ||
      !connect_all(wsock, 1, conns)) {
    res.check("servers_start", false,
              "see " + opt.run_dir + "/writer.log and replica.log");
    return;
  }
  for (Conn& c : conns) {  // warm-up, untimed
    Reply r;
    (void)control(c, "{\"op\": \"summary\"}", r);
  }

  Tally tally;
  EventLoop d(conns);
  util::Rng mix(opt.seed ^ 0x5eedu);
  std::vector<double> lat_a;
  std::vector<Sample> whatif_a;
  std::vector<double> by_kind[3];
  std::vector<double> begin_ms, annotate_ms, commit_ms, round_ms, commit_srv;
  std::int64_t edit_start = 0;
  std::size_t next_eco = 0;
  std::uint64_t skipped_edits = 0;
  struct Committed {
    std::uint64_t version;
    std::int64_t recv_ns;
  };
  std::vector<Committed> commits;
  std::size_t first_unseen = 0;
  std::vector<double> lag_ms;
  double traced_rtt_ms = 0.0;
  std::uint64_t traced_requests = 0;
  bool phase_b = false;
  std::int64_t b_last = 0;
  std::uint64_t done_b = 0;

  // The read mix in exact proportions: every block of ten reads is a seeded
  // shuffle of five what-ifs, three summaries and two worst-20 endpoint
  // lists, and the what-ifs walk the pool in a seeded cyclic order, so every
  // generation asks for each pool entry alike.
  constexpr int kBlock[10] = {kWhatif,  kWhatif,  kWhatif,   kWhatif,
                              kWhatif,  kSummary, kSummary,  kSummary,
                              kEndpoints, kEndpoints};
  const std::vector<std::size_t> pool_order =
      seeded_order(pool_lines.size(), opt.seed);
  std::vector<std::size_t> block;
  std::size_t block_at = 0, pool_at = 0;
  const auto send_read = [&](std::int64_t due) {
    if (block_at == block.size()) {
      block = seeded_order(std::size(kBlock), mix());
      block_at = 0;
    }
    const std::size_t c = d.least_loaded(0, kReaders);
    ++tally.attempted;
    switch (kBlock[block[block_at++]]) {
      case kWhatif: {
        const std::size_t i = pool_order[pool_at++ % pool_order.size()];
        d.send(c, pool_lines[i], kWhatif, i, due);
        break;
      }
      case kSummary:
        d.send(c, "{\"op\": \"summary\"}", kSummary, 0, due);
        break;
      default:
        d.send(c, "{\"op\": \"endpoints\", \"worst\": 20}", kEndpoints, 0,
               due);
    }
  };
  const auto annotate_line = [&](std::size_t k) {
    return "{\"op\": \"annotate\", \"deltas\": " + deltas_json(ecos[k]) + "}";
  };
  // Phase A walks each edit op by op, to time each one. Phase B pipelines
  // the three ops of an edit, as a batch client would; the server still
  // runs them in order.
  const auto begin_edit = [&](std::int64_t due) {
    edit_start = due;
    const std::size_t k = next_eco++;
    ++tally.attempted;
    d.send(kEditor, "{\"op\": \"begin_edit\"}", kBegin, k, due);
    if (!phase_b) return;
    tally.attempted += 2;
    d.send(kEditor, annotate_line(k), kAnnotate, k, due);
    d.send(kEditor, "{\"op\": \"commit\"}", kCommit, k, due);
  };
  const auto on_reply = [&](std::size_t c, const Outstanding& o,
                            std::string_view line, std::int64_t recv) {
    Reply r;
    const bool parsed = parse_reply(line, r);
    const Sample s = sample_of(o, recv, r);
    const bool good = tally.count(r, parsed, s.rtt_ms);
    if (c == kEditor && phase_b) {
      if (o.kind != kCommit) return;
      if (good) ++done_b;
      b_last = recv;
      if (next_eco < ecos.size()) begin_edit(now_ns());
      return;
    }
    if (c == kEditor) {
      if (!good) return;  // this edit is abandoned; the next slot starts anew
      if (o.kind == kBegin) {
        ++tally.attempted;
        d.send(kEditor, annotate_line(o.tag), kAnnotate, o.tag, now_ns());
      } else if (o.kind == kAnnotate) {
        ++tally.attempted;
        d.send(kEditor, "{\"op\": \"commit\"}", kCommit, o.tag, now_ns());
      } else {
        commits.push_back({r.version, recv});
        round_ms.push_back(static_cast<double>(recv - edit_start) * 1e-6);
        commit_srv.push_back(r.total);
      }
      (o.kind == kBegin ? begin_ms : o.kind == kAnnotate ? annotate_ms
                                                         : commit_ms)
          .push_back(s.rtt_ms);
      trace_request(spans, o, recv, r, c, ++traced_requests);
      traced_rtt_ms += s.rtt_ms;
      return;
    }
    if (!good) return;
    // Replication lag: commit reply -> first replica reply at >= that
    // version.
    while (first_unseen < commits.size() &&
           commits[first_unseen].version <= r.version &&
           commits[first_unseen].recv_ns <= recv) {
      lag_ms.push_back(
          static_cast<double>(recv - commits[first_unseen].recv_ns) * 1e-6);
      ++first_unseen;
    }
    lat_a.push_back(s.latency_ms);
    by_kind[o.kind].push_back(s.latency_ms);
    if (o.kind == kWhatif) whatif_a.push_back(s);
    trace_request(spans, o, recv, r, c, ++traced_requests);
    traced_rtt_ms += s.rtt_ms;
  };

  // Phase A: open-loop reads on the replica, one commit per 250 ms slot on
  // the writer.
  const std::int64_t a0 = now_ns();
  d.every(a0, static_cast<std::int64_t>(1e9 / kReadRate), send_read);
  d.every(a0, static_cast<std::int64_t>(1e9 / kEditHz), [&](std::int64_t due) {
    if (d.inflight(kEditor) != 0 || next_eco >= n_ea) {
      ++skipped_edits;
      return;
    }
    begin_edit(due);
  });
  tally.lost(
      d.run(a0 + static_cast<std::int64_t>(t_a * 1e9), kTimeoutSec, on_reply));
  check_schedule(d, kReadRate, res);
  d.clear_schedules();

  // Phase B: phase B's ECOs committed back to back with the readers idle,
  // through the writer's transaction path while the replica pulls the delta
  // stream; ops_per_s is commits per second.
  phase_b = true;
  next_eco = n_ea;
  const std::int64_t b0 = now_ns();
  b_last = b0;
  begin_edit(b0);
  tally.lost(d.run(b0 + static_cast<std::int64_t>((3.0 * t_b + 10.0) * 1e9),
                   kTimeoutSec, on_reply));
  const double b_sec = static_cast<double>(b_last - b0) * 1e-9;

  // Gate: once the replica reaches the writer's final generation, its
  // summary and full endpoint list are byte-identical to the writer's.
  Reply wsum, rsum, rstats;
  std::string wraw, rraw;
  bool identical = false;
  std::string why = "writer summary failed";
  if (control(conns[kEditor], "{\"op\": \"summary\"}", wsum, &wraw)) {
    why = "replica never reached generation " + std::to_string(wsum.version);
    const std::int64_t deadline =
        now_ns() + static_cast<std::int64_t>(kTimeoutSec * 1e9);
    while (now_ns() < deadline &&
           control(conns[0], "{\"op\": \"summary\"}", rsum, &rraw) &&
           rsum.version < wsum.version) {
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
    if (rsum.version == wsum.version) {
      const std::string all =
          "{\"op\": \"endpoints\", \"worst\": " +
          std::to_string(in.graph->endpoints().size()) + "}";
      std::string wep, rep;
      Reply tmp;
      const bool got = control(conns[kEditor], all, tmp, &wep) &&
                       control(conns[0], all, tmp, &rep);
      identical = got && result_body(wraw) == result_body(rraw) &&
                  result_body(wep) == result_body(rep) &&
                  !result_body(wep).empty();
      why = "generation " + std::to_string(wsum.version) +
            (identical ? ": summary and endpoints identical"
                       : ": replica differs from writer");
    }
  }
  res.check("replica_matches_writer", identical, why);
  const bool have_stats = control(conns[0], "{\"op\": \"stats\"}", rstats);
  const JsonValue* rs = rstats.result();
  const JsonValue* cache = rs != nullptr ? rs->find("whatif_cache") : nullptr;
  const JsonValue* repl = rs != nullptr ? rs->find("replication") : nullptr;
  const double full_syncs = have_stats ? num(repl, "full_syncs") : -1.0;
  res.check("no_full_resync", full_syncs == 0.0,
            "replica full syncs " + std::to_string(full_syncs));
  res.check("edits_committed", !commits.empty(),
            std::to_string(commits.size()) + " commits, " +
                std::to_string(skipped_edits) + " slots skipped");

  res.set("run.peak_rss_mb", writer->peak_rss_mb() + replica->peak_rss_mb());
  conns.clear();
  const bool clean_exit =
      replica->stop(rsock, kTimeoutSec) && writer->stop(wsock, kTimeoutSec);
  res.check("servers_exit_cleanly", clean_exit, "writer and replica shutdown");

  res.attempted = tally.attempted;
  res.failed = tally.failed;
  // The op is the replica's what-if read: the read that touches the engine,
  // whose latency both the cache (hits) and delta application (misses wait
  // on the engine lock) move. The sub-millisecond snapshot reads are the
  // mixed.summary_* and mixed.endpoints_* diagnostics.
  res.samples["op"] = by_kind[kWhatif].size();
  res.samples["reads"] = lat_a.size();
  res.samples["closed_loop"] = done_b;
  res.samples["commits"] = commits.size() + done_b;
  res.set("setup_s", median(setup_s));
  res.set("op_p50_ms", quantile(by_kind[kWhatif], 0.5));
  res.set("op_p90_ms", quantile(by_kind[kWhatif], 0.9));
  res.set("ops_per_s", static_cast<double>(done_b) / b_sec);

  if (!opt.trace) return;
  report_server_parts(whatif_a, res);
  check_layers_sum(spans, "client.request", traced_rtt_ms, res);
  const char* kind_name[] = {"whatif", "summary", "endpoints"};
  for (int k = 0; k < 3; ++k) {
    res.set(std::string("mixed.") + kind_name[k] + "_p50_ms",
            quantile(by_kind[k], 0.5));
    res.set(std::string("mixed.") + kind_name[k] + "_p99_ms",
            quantile(by_kind[k], 0.99));
  }
  res.set("mixed.p99_ms", quantile(lat_a, 0.99));
  const double hits = num(cache, "hits");
  const double lookups = hits + num(cache, "misses");
  res.set("replica.cache_hits", hits);
  res.set("replica.cache_hit_rate", lookups > 0.0 ? hits / lookups : 0.0);
  res.set("replica.applied_deltas", num(repl, "applied_deltas"));
  res.set("replica.full_syncs", full_syncs);
  res.set("replica.lag_p50_ms", quantile(lag_ms, 0.5));
  res.set("replica.lag_p90_ms", quantile(lag_ms, 0.9));
  res.set("edit.begin_p50_ms", quantile(begin_ms, 0.5));
  res.set("edit.annotate_p50_ms", quantile(annotate_ms, 0.5));
  res.set("edit.commit_p50_ms", quantile(commit_ms, 0.5));
  res.set("edit.round_trip_p50_ms", quantile(round_ms, 0.5));
  res.set("edit.commit_server_us_p50", quantile(commit_srv, 0.5));
  const double batches = num(rs, "batches");
  res.set("serve.batches", batches);
  res.set("serve.mean_occupancy",
          batches > 0 ? num(rs, "whatif_scenarios") / batches : 0.0);
  res.set("serve.max_occupancy", num(rs, "max_batch_occupancy"));
  res.set("serve.shed", static_cast<double>(tally.shed));
  if (!spans.write_chrome(opt.trace_path)) {
    res.check("trace_written", false, "cannot write " + opt.trace_path);
  }
}

}  // namespace insta::e2e
