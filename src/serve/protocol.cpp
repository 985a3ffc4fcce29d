#include "serve/protocol.hpp"

#include <algorithm>
#include <cmath>
#include <iterator>
#include <numeric>
#include <utility>

#include "replica/codec.hpp"
#include "serve/server.hpp"
#include "telemetry/flight_recorder.hpp"
#include "telemetry/telemetry.hpp"
#include "util/log.hpp"

namespace insta::serve {

using analysis::Diagnostic;
using analysis::LintReport;
using analysis::Severity;
using telemetry::JsonValue;
using timing::ArcDelta;

namespace {

/// Whole microseconds from stamp `from_ns` to stamp `to_ns` of a
/// RequestRecord; 0 when the request never reached `from_ns`'s stage.
std::int64_t span_us(std::uint64_t from_ns, std::uint64_t to_ns) {
  return from_ns != 0 && to_ns > from_ns
             ? static_cast<std::int64_t>((to_ns - from_ns) / 1000)
             : 0;
}

/// Small numeric op tag for the flight recorder's kAdmit detail word.
std::uint32_t op_tag(const std::string& op) {
  static constexpr const char* kOps[] = {
      "ping",     "info",   "summary",    "endpoints", "open",
      "close",    "whatif", "begin_edit", "annotate",  "commit",
      "rollback", "stats",  "trace",      "flightrec", "shutdown",
      "sync",     "delta_stream"};
  for (std::size_t i = 0; i < std::size(kOps); ++i) {
    if (op == kOps[i]) return static_cast<std::uint32_t>(i + 1);
  }
  return 0;
}

/// Strips the pretty-printer's trailing newline so a standalone telemetry
/// document embeds cleanly as a reply body.
std::string trim_trailing(std::string s) {
  while (!s.empty() && (s.back() == '\n' || s.back() == ' ')) s.pop_back();
  return s;
}

void add_error(LintReport& report, const char* rule, std::string message) {
  Diagnostic d;
  d.rule = rule;
  d.severity = Severity::kError;
  d.message = std::move(message);
  report.add(std::move(d));
}

/// Integral-number member fetch; false (with a diagnostic) on wrong type.
bool get_int(const JsonValue& obj, const char* key, std::int64_t& out,
             const char* rule, LintReport& report) {
  const JsonValue* v = obj.find(key);
  if (v == nullptr) return true;  // absent is fine; caller keeps the default
  if (!v->is_number() || v->number != std::floor(v->number)) {
    add_error(report, rule,
              std::string("\"") + key + "\" must be an integral number");
    return false;
  }
  out = static_cast<std::int64_t>(v->number);
  return true;
}

/// Parses one {"arc", "mu"?, "sigma"?} delta object.
bool parse_delta(const JsonValue& d, const std::string& where, ArcDelta& out,
                 const char* rule, LintReport& report) {
  if (!d.is_object()) {
    add_error(report, rule, where + " is not an object");
    return false;
  }
  const JsonValue* arc = d.find("arc");
  if (arc == nullptr || !arc->is_number() ||
      arc->number != std::floor(arc->number)) {
    add_error(report, rule, where + " has no integral \"arc\" id");
    return false;
  }
  out.arc = static_cast<timing::ArcId>(arc->number);
  const auto rf_pair = [&](const char* key, std::array<double, 2>& dst) {
    const JsonValue* v = d.find(key);
    if (v == nullptr) return true;
    if (!v->is_array() || v->array.size() != 2 || !v->array[0].is_number() ||
        !v->array[1].is_number()) {
      add_error(report, rule,
                where + "." + key + " must be a [rise, fall] number pair");
      return false;
    }
    dst = {v->array[0].number, v->array[1].number};
    return true;
  };
  return rf_pair("mu", out.mu) && rf_pair("sigma", out.sigma);
}

/// Resolves a request's corner selection against the published corner-name
/// list: the integer form indexes it, the name form scans it. -1 = unknown.
std::int64_t find_corner(const std::vector<std::string>& names,
                         const Request& req) {
  if (req.corner_index >= 0) {
    return req.corner_index < static_cast<std::int64_t>(names.size())
               ? req.corner_index
               : -1;
  }
  for (std::size_t i = 0; i < names.size(); ++i) {
    if (names[i] == req.corner) return static_cast<std::int64_t>(i);
  }
  return -1;
}

/// Wire spelling of the corner the client asked for, for error messages.
std::string corner_spelling(const Request& req) {
  return req.corner.empty() ? std::to_string(req.corner_index)
                            : "\"" + req.corner + "\"";
}

}  // namespace

bool parse_scenarios_json(const JsonValue& doc,
                          std::vector<std::vector<ArcDelta>>& scenarios,
                          std::vector<std::string>& labels,
                          LintReport& report) {
  constexpr const char* kRule = "whatif-shape";
  const JsonValue* arr = doc.is_array() ? &doc : doc.find("scenarios");
  if (arr == nullptr || !arr->is_array()) {
    add_error(report, kRule,
              "expected a top-level array or {\"scenarios\": [...]}");
    return false;
  }
  bool ok = true;
  for (std::size_t i = 0; i < arr->array.size(); ++i) {
    const JsonValue& s = arr->array[i];
    const std::string where = "scenario " + std::to_string(i);
    if (!s.is_object()) {
      add_error(report, kRule, where + " is not an object");
      ok = false;
      continue;
    }
    const JsonValue* label = s.find("label");
    labels.push_back(label != nullptr && label->is_string()
                         ? label->string
                         : "scenario-" + std::to_string(i));
    const JsonValue* deltas = s.find("deltas");
    if (deltas == nullptr || !deltas->is_array()) {
      add_error(report, kRule, where + " has no deltas array");
      ok = false;
      continue;
    }
    std::vector<ArcDelta> ds;
    ds.reserve(deltas->array.size());
    for (std::size_t j = 0; j < deltas->array.size(); ++j) {
      ArcDelta ad;
      if (parse_delta(deltas->array[j],
                      where + " delta " + std::to_string(j), ad, kRule,
                      report)) {
        ds.push_back(ad);
      } else {
        ok = false;
      }
    }
    scenarios.push_back(std::move(ds));
  }
  return ok;
}

bool parse_request(std::string_view line, Request& out, LintReport& report) {
  JsonValue doc;
  std::string error;
  if (!telemetry::json_parse(line, doc, error)) {
    add_error(report, "req-json", "request is not valid JSON: " + error);
    return false;
  }
  constexpr const char* kRule = "req-shape";
  if (!doc.is_object()) {
    add_error(report, kRule, "request must be a JSON object");
    return false;
  }
  std::int64_t id = 0;
  if (!get_int(doc, "id", id, kRule, report)) return false;
  out.id = id;
  const JsonValue* op = doc.find("op");
  if (op == nullptr || !op->is_string() || op->string.empty()) {
    add_error(report, kRule, "request has no \"op\" string");
    return false;
  }
  out.op = op->string;
  std::int64_t session = -1;
  if (!get_int(doc, "session", session, kRule, report)) return false;
  out.session = session;
  std::int64_t worst = 0;
  if (!get_int(doc, "worst", worst, kRule, report)) return false;
  if (worst < 0) {
    add_error(report, kRule, "\"worst\" must be >= 0");
    return false;
  }
  out.worst = static_cast<int>(worst);
  std::int64_t max = 0;
  if (!get_int(doc, "max", max, kRule, report)) return false;
  if (max < 0) {
    add_error(report, kRule, "\"max\" must be >= 0");
    return false;
  }
  out.max = static_cast<int>(max);
  std::int64_t from = 0;
  if (!get_int(doc, "from", from, kRule, report)) return false;
  if (from < 0) {
    add_error(report, kRule, "\"from\" must be >= 0");
    return false;
  }
  out.from = static_cast<std::uint64_t>(from);

  if (const JsonValue* corner = doc.find("corner"); corner != nullptr) {
    if (corner->is_string()) {
      out.has_corner = true;
      out.corner = corner->string;
    } else if (corner->is_number() &&
               corner->number == std::floor(corner->number) &&
               corner->number >= 0) {
      out.has_corner = true;
      out.corner_index = static_cast<std::int64_t>(corner->number);
    } else {
      add_error(report, kRule,
                "\"corner\" must be a corner name or a corner id >= 0");
      return false;
    }
  }

  if (const JsonValue* ids = doc.find("ids"); ids != nullptr) {
    if (!ids->is_array()) {
      add_error(report, kRule, "\"ids\" must be an array");
      return false;
    }
    for (std::size_t i = 0; i < ids->array.size(); ++i) {
      const JsonValue& v = ids->array[i];
      if (!v.is_number() || v.number != std::floor(v.number)) {
        add_error(report, kRule,
                  "ids[" + std::to_string(i) + "] must be an integral number");
        return false;
      }
      out.endpoint_ids.push_back(static_cast<std::int64_t>(v.number));
    }
  }

  if (const JsonValue* scen = doc.find("scenarios"); scen != nullptr) {
    if (!parse_scenarios_json(*scen, out.scenarios, out.labels, report)) {
      return false;
    }
  }

  if (const JsonValue* deltas = doc.find("deltas"); deltas != nullptr) {
    if (!deltas->is_array()) {
      add_error(report, kRule, "\"deltas\" must be an array");
      return false;
    }
    for (std::size_t j = 0; j < deltas->array.size(); ++j) {
      ArcDelta ad;
      if (!parse_delta(deltas->array[j], "delta " + std::to_string(j), ad,
                       kRule, report)) {
        return false;
      }
      out.deltas.push_back(ad);
    }
  }
  return true;
}

// ---- reply builders ---------------------------------------------------------

std::string ok_reply(std::int64_t id, std::string_view body) {
  std::string s = "{\"id\": " + std::to_string(id) + ", \"ok\": true";
  if (!body.empty()) {
    s += ", \"result\": ";
    s += body;
  }
  s += "}";
  return s;
}

std::string error_reply(std::int64_t id, ErrorCode code,
                        std::string_view message,
                        const LintReport* diagnostics) {
  std::string s = "{\"id\": " + std::to_string(id) +
                  ", \"ok\": false, \"error\": {\"code\": \"" +
                  error_code_name(code) + "\", \"message\": \"" +
                  telemetry::json_escape(message) + "\"";
  if (diagnostics != nullptr && !diagnostics->empty()) {
    s += ", \"diagnostics\": [";
    bool first = true;
    for (const Diagnostic& d : diagnostics->diagnostics()) {
      if (!first) s += ", ";
      first = false;
      s += "{\"rule\": \"" + telemetry::json_escape(d.rule) +
           "\", \"severity\": \"" + analysis::severity_name(d.severity) +
           "\", \"message\": \"" + telemetry::json_escape(d.message) + "\"}";
    }
    s += "]";
  }
  s += "}}";
  return s;
}

std::string summary_body(const core::SlackSummary& s) {
  return "{\"tns\": " + telemetry::json_number(s.tns) +
         ", \"wns\": " + telemetry::json_number(s.wns) +
         ", \"violations\": " + std::to_string(s.violations) + "}";
}

std::string stats_body(const ServiceStats& s) {
  return "{\"sessions_opened\": " + std::to_string(s.sessions_opened) +
         ", \"whatif_requests\": " + std::to_string(s.whatif_requests) +
         ", \"whatif_scenarios\": " + std::to_string(s.whatif_scenarios) +
         ", \"batches\": " + std::to_string(s.batches) +
         ", \"max_batch_occupancy\": " +
         std::to_string(s.max_batch_occupancy) +
         ", \"shed\": " + std::to_string(s.shed) +
         ", \"commits\": " + std::to_string(s.commits) +
         ", \"rollbacks\": " + std::to_string(s.rollbacks) +
         ", \"snapshots_published\": " +
         std::to_string(s.snapshots_published) + "}";
}

// ---- dispatcher -------------------------------------------------------------

Dispatcher::Dispatcher(TimingService& service, const ServerOptions* server)
    : service_(&service), server_(server) {}

Dispatcher::~Dispatcher() {
  // Close everything this connection opened; an in-flight request on the
  // session cannot exist here (the connection thread is the one request
  // path), but close defensively and ignore failures.
  for (const SessionId sid : owned_) {
    (void)service_->close_session(sid);
  }
}

bool Dispatcher::resolve_session(const Request& req, SessionId& out,
                                 Error& err) {
  if (req.session >= 0) {
    out = req.session;
    return true;
  }
  if (implicit_ < 0) {
    err = service_->open_session(implicit_);
    if (!err.ok()) return false;
    owned_.push_back(implicit_);
  }
  out = implicit_;
  return true;
}

std::string Dispatcher::dispatch(std::string_view line, bool* shutdown) {
  RequestRecord rec;
  rec.admit_ns = telemetry::Tracer::now_ns();
  Request req;
  LintReport report;
  const bool parsed = parse_request(line, req, report);
  // Every request gets a traceable identity: a client-supplied nonzero id
  // is used verbatim, anything else (absent, 0, or an unparseable line) is
  // assigned a fresh server-generated id that the reply echoes.
  if (req.id == 0) req.id = static_cast<std::int64_t>(next_request_id());
  rec.id = static_cast<std::uint64_t>(req.id);
  // The dispatcher records the one admit and the one reply of every wire
  // request; the service records only the what-if pipeline in between.
  auto& fr = telemetry::FlightRecorder::global();
  fr.record(telemetry::FlightEventType::kAdmit, rec.admit_ns, rec.id, 0,
            op_tag(req.op));

  std::string reply;
  if (parsed) {
    reply = dispatch_op(req, shutdown, rec);
  } else {
    rec.error = ErrorCode::kBadRequest;
    reply = error_reply(req.id, rec.error, "malformed request", &report);
  }
  rec.reply_ns = telemetry::Tracer::now_ns();

  // Everything below is derived from the record's stamps.
  fr.record(telemetry::FlightEventType::kReply, rec.reply_ns, rec.id,
            rec.generation, static_cast<std::uint32_t>(rec.error));
  const std::int64_t total_us = span_us(rec.admit_ns, rec.reply_ns);
  const std::string breakdown =
      "\"queue\": " + std::to_string(span_us(rec.enqueue_ns, rec.drain_ns)) +
      ", \"batch\": " +
      std::to_string(span_us(rec.drain_ns, rec.eval_begin_ns)) +
      ", \"eval\": " +
      std::to_string(span_us(rec.eval_begin_ns, rec.eval_end_ns)) +
      ", \"serialize\": " +
      std::to_string(span_us(rec.serialize_ns, rec.reply_ns)) +
      ", \"total\": " + std::to_string(total_us);
  if (req.op == "whatif") {
    // Every what-if exit path is observed (served, cache hit, shed,
    // rejected): a dashboard's p99 must see the requests the server turned
    // away too. The serve layer's one registry metric; stats reads it.
    static telemetry::Histogram latency_us =
        telemetry::MetricsRegistry::global().histogram(
            "serve.whatif_latency_us");
    latency_us.observe(static_cast<double>(total_us));
  }
  if (server_ != nullptr && server_->slow_us >= 0 &&
      total_us >= server_->slow_us) {
    util::log_warn("serve: slow request id=" + std::to_string(req.id) +
                   " op=" + (req.op.empty() ? "?" : req.op) + " server_us={" +
                   breakdown + "}");
  }
  // Inject the breakdown as a top-level reply member (every reply builder
  // ends its object with '}').
  reply.pop_back();
  reply += ", \"server_us\": {" + breakdown + "}}";
  return reply;
}

std::string Dispatcher::dispatch_op(const Request& req, bool* shutdown,
                                    RequestRecord& rec) {
  const std::string& op = req.op;
  // Every error reply goes through here, so the reply event carries its code.
  const auto fail = [&](ErrorCode code, std::string_view message,
                        const LintReport* diagnostics = nullptr) {
    rec.error = code;
    return error_reply(req.id, code, message, diagnostics);
  };

  // Corner selection: resolve it once for the ops that accept it. ci stays
  // -1 for the merged view.
  std::int64_t ci = -1;
  if (req.has_corner &&
      (op == "summary" || op == "endpoints" || op == "whatif" ||
       op == "info")) {
    const auto snap = service_->snapshot();
    ci = find_corner(snap->corners, req);
    if (ci < 0) {
      return fail(ErrorCode::kUnknownCorner,
                  "unknown corner " + corner_spelling(req) + " (engine has " +
                      std::to_string(snap->corners.size()) + " corners)");
    }
  }

  if (op == "ping") return ok_reply(req.id, "{\"pong\": true}");

  if (op == "shutdown") {
    if (shutdown != nullptr) *shutdown = true;
    return ok_reply(req.id, "{\"shutting_down\": true}");
  }

  if (op == "info") {
    const core::Engine& e = service_->engine();
    const auto snap = service_->snapshot();
    std::string body =
        "{\"version\": " + std::to_string(snap->version) +
        ", \"endpoints\": " + std::to_string(snap->slack.size()) +
        ", \"arcs\": " + std::to_string(e.graph().num_arcs()) +
        ", \"hold\": " + (snap->has_hold ? "true" : "false") +
        ", \"protocol\": " + std::to_string(kProtocolVersion) +
        ", \"corners\": [";
    for (std::size_t c = 0; c < snap->corners.size(); ++c) {
      if (c != 0) body += ", ";
      body += "\"" + telemetry::json_escape(snap->corners[c]) + "\"";
    }
    body += "]}";
    return ok_reply(req.id, body);
  }

  if (op == "summary") {
    const auto snap = service_->snapshot();
    const core::SlackSummary& setup =
        ci >= 0 ? snap->setup_by_corner[static_cast<std::size_t>(ci)]
                : snap->setup;
    std::string body = "{\"version\": " + std::to_string(snap->version);
    if (ci >= 0) {
      body += ", \"corner\": \"" +
              telemetry::json_escape(
                  snap->corners[static_cast<std::size_t>(ci)]) +
              "\"";
    }
    body += ", \"setup\": " + summary_body(setup);
    if (snap->has_hold) {
      const core::SlackSummary& hold =
          ci >= 0 ? snap->hold_by_corner[static_cast<std::size_t>(ci)]
                  : snap->hold;
      body += ", \"hold\": " + summary_body(hold);
    }
    body += "}";
    return ok_reply(req.id, body);
  }

  if (op == "endpoints") {
    const auto snap = service_->snapshot();
    // The merged plane, or the selected corner's slice of the corner-major
    // per-endpoint arrays.
    const std::size_t n = snap->slack.size();
    const float* slack = snap->slack.data();
    const float* hold_slack =
        snap->has_hold ? snap->hold_slack.data() : nullptr;
    if (ci >= 0) {
      const auto off = static_cast<std::size_t>(ci) * n;
      slack = snap->slack_by_corner.data() + off;
      if (snap->has_hold) {
        hold_slack = snap->hold_slack_by_corner.data() + off;
      }
    }
    std::vector<std::int64_t> ids;
    if (req.worst > 0) {
      // N worst-slack endpoints of the selected view (ascending slack).
      std::vector<std::int64_t> order(n);
      std::iota(order.begin(), order.end(), std::int64_t{0});
      const auto cap = std::min<std::size_t>(
          static_cast<std::size_t>(req.worst), order.size());
      std::partial_sort(order.begin(),
                        order.begin() + static_cast<std::ptrdiff_t>(cap),
                        order.end(), [&](std::int64_t a, std::int64_t b) {
                          return slack[static_cast<std::size_t>(a)] <
                                 slack[static_cast<std::size_t>(b)];
                        });
      order.resize(cap);
      ids = std::move(order);
    } else {
      for (const std::int64_t id : req.endpoint_ids) {
        if (id < 0 || static_cast<std::size_t>(id) >= n) {
          return fail(ErrorCode::kBadRequest,
                      "endpoint id " + std::to_string(id) +
                          " out of range [0, " + std::to_string(n) + ")");
        }
        ids.push_back(id);
      }
    }
    std::string body = "{\"version\": " + std::to_string(snap->version);
    if (ci >= 0) {
      body += ", \"corner\": \"" +
              telemetry::json_escape(
                  snap->corners[static_cast<std::size_t>(ci)]) +
              "\"";
    }
    body += ", \"endpoints\": [";
    for (std::size_t i = 0; i < ids.size(); ++i) {
      const auto e = static_cast<std::size_t>(ids[i]);
      if (i != 0) body += ", ";
      body += "{\"ep\": " + std::to_string(ids[i]) + ", \"slack\": " +
              telemetry::json_number(static_cast<double>(slack[e]));
      if (snap->has_hold) {
        body += ", \"hold_slack\": " +
                telemetry::json_number(static_cast<double>(hold_slack[e]));
      }
      body += "}";
    }
    body += "]}";
    return ok_reply(req.id, body);
  }

  if (op == "open") {
    SessionId sid = -1;
    const Error err = service_->open_session(sid);
    if (!err.ok()) return fail(err.code, err.message);
    owned_.push_back(sid);
    return ok_reply(req.id, "{\"session\": " + std::to_string(sid) + "}");
  }

  if (op == "close") {
    SessionId sid = -1;
    Error err;
    if (!resolve_session(req, sid, err)) {
      return fail(err.code, err.message);
    }
    err = service_->close_session(sid);
    if (!err.ok()) return fail(err.code, err.message);
    owned_.erase(std::remove(owned_.begin(), owned_.end(), sid),
                 owned_.end());
    if (sid == implicit_) implicit_ = -1;
    return ok_reply(req.id, "{\"closed\": " + std::to_string(sid) + "}");
  }

  if (op == "whatif") {
    SessionId sid = -1;
    Error err;
    if (!resolve_session(req, sid, err)) {
      return fail(err.code, err.message);
    }
    TimingService::WhatifReply reply;
    reply.record = &rec;
    // The resolved corner shapes only the reply view and the cache key; it
    // never changes what the evaluator computes.
    err = service_->whatif(sid, req.scenarios, reply,
                           ci >= 0 ? static_cast<core::CornerId>(ci)
                                   : core::kAllCorners);
    rec.generation = reply.version;
    if (!err.ok()) {
      return fail(err.code, err.message, &err.diagnostics);
    }
    rec.serialize_ns = telemetry::Tracer::now_ns();
    std::string body = "{\"version\": " + std::to_string(reply.version);
    if (ci >= 0) {
      body += ", \"corner\": \"" +
              telemetry::json_escape(service_->engine()
                                         .corners()[static_cast<std::size_t>(
                                             ci)]
                                         .name) +
              "\"";
    }
    body += ", \"results\": [";
    for (std::size_t i = 0; i < reply.results.size(); ++i) {
      const core::ScenarioResult& r = reply.results[i];
      if (i != 0) body += ", ";
      const core::SlackSummary& setup =
          ci >= 0 ? r.setup_by_corner[static_cast<std::size_t>(ci)]
                  : r.setup;
      body += "{\"label\": \"" + telemetry::json_escape(req.labels[i]) +
              "\", \"setup\": " + summary_body(setup);
      if (service_->engine().options().enable_hold) {
        const core::SlackSummary& hold =
            ci >= 0 ? r.hold_by_corner[static_cast<std::size_t>(ci)]
                    : r.hold;
        body += ", \"hold\": " + summary_body(hold);
      }
      body += ", \"frontier_pins\": " + std::to_string(r.frontier_pins) +
              ", \"early_terminations\": " +
              std::to_string(r.early_terminations) +
              ", \"endpoints_evaluated\": " +
              std::to_string(r.endpoints_evaluated) +
              ", \"overlay_bytes\": " + std::to_string(r.overlay_bytes);
      if (!r.endpoint_changes.empty()) {
        body += ", \"endpoint_changes\": [";
        for (std::size_t c = 0; c < r.endpoint_changes.size(); ++c) {
          const core::EndpointSlackChange& ch = r.endpoint_changes[c];
          if (c != 0) body += ", ";
          body += "{\"ep\": " + std::to_string(ch.ep) + ", \"setup\": " +
                  telemetry::json_number(static_cast<double>(ch.setup)) +
                  ", \"hold\": " +
                  telemetry::json_number(static_cast<double>(ch.hold)) + "}";
        }
        body += "]";
      }
      body += "}";
    }
    body += "]}";
    return ok_reply(req.id, body);
  }

  if (op == "begin_edit" || op == "annotate" || op == "commit" ||
      op == "rollback") {
    SessionId sid = -1;
    Error err;
    if (!resolve_session(req, sid, err)) {
      return fail(err.code, err.message);
    }
    if (op == "begin_edit") {
      err = service_->begin_edit(sid);
      if (!err.ok()) return fail(err.code, err.message);
      return ok_reply(req.id, "{\"editing\": true}");
    }
    if (op == "annotate") {
      err = service_->annotate(sid, req.deltas);
      if (!err.ok()) {
        return fail(err.code, err.message, &err.diagnostics);
      }
      return ok_reply(
          req.id, "{\"buffered\": " + std::to_string(req.deltas.size()) + "}");
    }
    if (op == "commit") {
      TimingService::CommitReply reply;
      err = service_->commit(sid, reply);
      if (!err.ok()) return fail(err.code, err.message);
      std::string body = "{\"version\": " + std::to_string(reply.version) +
                         ", \"setup\": " + summary_body(reply.setup);
      if (service_->engine().options().enable_hold) {
        body += ", \"hold\": " + summary_body(reply.hold);
      }
      body += "}";
      return ok_reply(req.id, body);
    }
    err = service_->rollback(sid);
    if (!err.ok()) return fail(err.code, err.message);
    return ok_reply(req.id, "{\"rolled_back\": true}");
  }

  if (op == "stats") {
    // stats_body plus the live fields a polling dashboard (insta_cli top)
    // needs: instantaneous queue depth / session count and the distribution
    // of what-if server_us.total (observed by dispatch()).
    std::string body = stats_body(service_->stats());
    body.pop_back();
    body += ", \"queue_depth\": " + std::to_string(service_->queue_depth()) +
            ", \"open_sessions\": " +
            std::to_string(service_->open_sessions());
    const telemetry::MetricsSnapshot snap =
        telemetry::MetricsRegistry::global().snapshot();
    const auto it = snap.histograms.find("serve.whatif_latency_us");
    const telemetry::HistogramSnapshot lat =
        it == snap.histograms.end() ? telemetry::HistogramSnapshot{}
                                    : it->second;
    body += ", \"latency_us\": {\"count\": " + std::to_string(lat.count) +
            ", \"p50\": " + telemetry::json_number(lat.percentile(0.50)) +
            ", \"p95\": " + telemetry::json_number(lat.percentile(0.95)) +
            ", \"p99\": " + telemetry::json_number(lat.percentile(0.99)) +
            ", \"max\": " + telemetry::json_number(lat.max) + "}";
    // Deployment identity: the protocol version, the committed engine
    // generation, and the corner list, so a fleet orchestrator can tell
    // from one stats poll whether a replica has converged.
    const auto ssnap = service_->snapshot();
    body += ", \"protocol\": " + std::to_string(kProtocolVersion) +
            ", \"generation\": " + std::to_string(ssnap->version) +
            ", \"corners\": [";
    for (std::size_t c = 0; c < ssnap->corners.size(); ++c) {
      if (c != 0) body += ", ";
      body += "\"" + telemetry::json_escape(ssnap->corners[c]) + "\"";
    }
    body += std::string("], \"read_only\": ") +
            (service_->options().read_only ? "true" : "false");
    const replica::WhatifCacheStats cs = service_->cache_stats();
    body += ", \"whatif_cache\": {\"hits\": " + std::to_string(cs.hits) +
            ", \"misses\": " + std::to_string(cs.misses) +
            ", \"evictions\": " + std::to_string(cs.evictions) +
            ", \"entries\": " + std::to_string(cs.entries) + "}";
    if (const replica::ReplicationInfo* ri = service_->replication_info();
        ri != nullptr) {
      body += ", \"replication\": {\"applied_deltas\": " +
              std::to_string(ri->applied_deltas.load()) +
              ", \"full_syncs\": " + std::to_string(ri->full_syncs.load()) +
              ", \"last_lag_us\": " + std::to_string(ri->last_lag_us.load()) +
              ", \"upstream_generation\": " +
              std::to_string(ri->upstream_generation.load()) +
              std::string(", \"connected\": ") +
              (ri->connected.load() ? "true" : "false") + "}";
    }
    body += "}";
    return ok_reply(req.id, body);
  }

  if (op == "sync") {
    // Full-state bootstrap: the complete timing state at one committed
    // generation, as one base64-wrapped binary frame.
    rec.serialize_ns = telemetry::Tracer::now_ns();
    const core::EngineState st = service_->export_state();
    const std::string frame = replica::encode_snapshot(st);
    std::string body = "{\"generation\": " + std::to_string(st.generation) +
                       ", \"snapshot\": \"" + replica::base64_encode(frame) +
                       "\"}";
    return ok_reply(req.id, body);
  }

  if (op == "delta_stream") {
    rec.serialize_ns = telemetry::Tracer::now_ns();
    std::vector<replica::CommitRecord> recs;
    const bool in_window = service_->delta_log().since(req.from, recs);
    std::string body =
        "{\"from\": " + std::to_string(req.from) + ", \"generation\": " +
        std::to_string(service_->delta_log().latest()) +
        std::string(", \"resync\": ") + (in_window ? "false" : "true") +
        ", \"deltas\": [";
    for (std::size_t i = 0; i < recs.size(); ++i) {
      if (i != 0) body += ", ";
      body += "\"" + replica::base64_encode(replica::encode_delta(recs[i])) +
              "\"";
    }
    body += "]}";
    return ok_reply(req.id, body);
  }

  if (op == "trace") {
    // Newest completed spans, embedded verbatim from Tracer::spans_json;
    // "max" caps the span count (default 64).
    const auto cap = static_cast<std::size_t>(req.max > 0 ? req.max : 64);
    const telemetry::Tracer& tracer = telemetry::Tracer::global();
    std::string body = trim_trailing(tracer.spans_json(cap));
    body.pop_back();
    body += std::string(", \"enabled\": ") +
            (tracer.enabled() ? "true" : "false") + "}";
    return ok_reply(req.id, body);
  }

  if (op == "flightrec") {
    // Newest flight-recorder lifecycle events ("max" caps the count,
    // default 64); the result validates as a flight-recorder document.
    const auto cap = static_cast<std::size_t>(req.max > 0 ? req.max : 64);
    return ok_reply(
        req.id,
        trim_trailing(telemetry::FlightRecorder::global().to_json(cap)));
  }

  return fail(ErrorCode::kBadRequest, "unknown op \"" + op + "\"");
}

}  // namespace insta::serve
