#pragma once

// The newline-delimited-JSON wire protocol of the timing-query service.
//
// One request per line, one reply line per request, in order:
//
//   -> {"id": 1, "op": "summary"}
//   <- {"id": 1, "ok": true, "result": {"version": 3, "setup": {...}}}
//   -> {"id": 2, "op": "whatif", "scenarios": [{"deltas": [{"arc": 7,
//        "mu": [1.5, 1.5]}]}]}
//   <- {"id": 2, "ok": true, "result": {"version": 3, "results": [...]}}
//   -> {"id": 3, "op": "nope"}
//   <- {"id": 3, "ok": false, "error": {"code": "bad-request",
//        "message": "...", "diagnostics": [...]}}
//
// Ops: ping, info, summary, endpoints (ids | worst N), open, close, whatif,
// begin_edit, annotate, commit, rollback, stats, trace, flightrec, sync,
// delta_stream, shutdown. The scenarios document reuses the `insta_cli
// whatif --scenarios` schema, so one parser (parse_scenarios_json) serves
// both the file-based CLI path and the wire.
//
// The server speaks one protocol, version kProtocolVersion; info and stats
// report it as "protocol".
//
// Corners: summary, endpoints, and whatif accept an optional "corner"
// member — a corner name or integer id — selecting one corner's view;
// absent means the cross-corner merged view. An unknown corner is rejected
// with code "unknown-corner". info reports the engine's "corners" name
// list.
//
// Replication: "sync" returns the engine's full timing state as
// {"generation": G, "snapshot": "<base64 frame>"} (the versioned binary
// codec of src/replica/codec.hpp); "delta_stream" with {"from": F} returns
// the commit deltas after generation F as {"from": F, "generation": G,
// "resync": bool, "deltas": ["<base64 frame>", ...]} — resync true means F
// has fallen out of the retained window (or is ahead of the writer) and the
// client must take a fresh snapshot. stats carries "protocol",
// "generation", "corners", "read_only", "whatif_cache", and (on replicas)
// "replication".
//
// Request tracing: a request that carries no "id" (or id 0) is assigned a
// fresh positive one by the dispatcher, and the reply echoes whichever id
// was in effect — so every request is addressable in the flight recorder
// and trace flow events whether or not the client numbers its requests.
// Every reply additionally carries a "server_us" object breaking the
// server-side wall time down as {"queue", "batch", "eval", "serialize",
// "total"} microseconds (the first three are nonzero only for whatif, whose
// batching pipeline they describe; the parts never sum to more than total).
// Its parts are differences of the request's RequestRecord stamps, the ones
// its flight events carry; stats "latency_us" is server_us.total over every
// whatif request, served or not.
//
// Every parse/shape failure is reported as structured analysis::Diagnostic
// entries with stable rule ids ("req-json", "req-shape", "whatif-json",
// "whatif-shape") — the same machinery the linter and Engine::check_deltas
// use — so clients and humans get one diagnostic vocabulary everywhere.

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "analysis/diagnostics.hpp"
#include "serve/service.hpp"
#include "telemetry/json.hpp"
#include "timing/types.hpp"

namespace insta::serve {

/// Wire protocol version, reported by info and stats. Version 2 added the
/// corner dimension (the "corner" request field, the "corners" member of
/// info); version 3 added replication (the "sync" and "delta_stream" ops
/// and the extended stats reply). Connections cannot pick an older
/// version: every connection gets every feature.
inline constexpr int kProtocolVersion = 3;

/// One decoded request line.
struct Request {
  std::int64_t id = 0;
  std::string op;
  SessionId session = -1;  ///< -1: use the connection's implicit session
  int worst = 0;           ///< endpoints op: N worst-slack endpoints
  int max = 0;             ///< trace/flightrec ops: entry cap (0: default)
  /// delta_stream op: resume after this applied generation ("from" field).
  std::uint64_t from = 0;
  /// Corner selection ("corner" field): a corner name or an integer corner
  /// id. Absent (has_corner false) selects the merged view.
  bool has_corner = false;
  std::int64_t corner_index = -1;  ///< integer form (-1 when named)
  std::string corner;              ///< name form (empty when integer)
  std::vector<std::int64_t> endpoint_ids;  ///< endpoints op: explicit ids
  std::vector<std::vector<timing::ArcDelta>> scenarios;  ///< whatif op
  std::vector<std::string> labels;                       ///< whatif op
  std::vector<timing::ArcDelta> deltas;                  ///< annotate op
};

/// Parses one request line. On failure returns false and adds diagnostics
/// (rule "req-json" for parse errors via the telemetry JSON parser, rule
/// "req-shape" for structural violations).
bool parse_request(std::string_view line, Request& out,
                   analysis::LintReport& report);

/// Parses a scenarios document — {"scenarios": [...]} or a top-level array,
/// each scenario {"label"?: s, "deltas": [{"arc": N, "mu"?: [r, f],
/// "sigma"?: [r, f]}]} — into delta-set lists. Shared by `insta_cli whatif
/// --scenarios` and the wire protocol's whatif op. Returns false and adds
/// diagnostics (rule "whatif-shape") on structural violations; arc-id
/// semantics are left to Engine::check_deltas.
bool parse_scenarios_json(const telemetry::JsonValue& doc,
                          std::vector<std::vector<timing::ArcDelta>>& scenarios,
                          std::vector<std::string>& labels,
                          analysis::LintReport& report);

// ---- reply builders ---------------------------------------------------------

/// {"id": N, "ok": true, "result": <body>}
[[nodiscard]] std::string ok_reply(std::int64_t id, std::string_view body);

/// {"id": N, "ok": false, "error": {"code", "message", "diagnostics"?}}
[[nodiscard]] std::string error_reply(std::int64_t id, ErrorCode code,
                                      std::string_view message,
                                      const analysis::LintReport* diagnostics =
                                          nullptr);

/// {"tns": x, "wns": y, "violations": n} — the whatif-schema summary body.
[[nodiscard]] std::string summary_body(const core::SlackSummary& s);

/// Serializes ServiceStats as a flat JSON object.
[[nodiscard]] std::string stats_body(const ServiceStats& s);

struct ServerOptions;

/// One connection's protocol state machine. dispatch() turns a request
/// line into exactly one reply line (no trailing newline). Sessions the
/// dispatcher opened implicitly or via the open op are closed when it is
/// destroyed, so a dropped connection cannot leak the edit slot.
class Dispatcher {
 public:
  /// `server` supplies ServerOptions::slow_us and must outlive the
  /// dispatcher; null (in-process use) logs no slow requests.
  explicit Dispatcher(TimingService& service,
                      const ServerOptions* server = nullptr);
  ~Dispatcher();
  Dispatcher(const Dispatcher&) = delete;
  Dispatcher& operator=(const Dispatcher&) = delete;

  /// Handles one request line. Sets *shutdown to true when the line was a
  /// shutdown op (the reply must still be delivered before closing). The
  /// RequestRecord yields server_us, the admit/reply flight events, the
  /// slow-request line and, for every what-if, one latency observation.
  [[nodiscard]] std::string dispatch(std::string_view line,
                                     bool* shutdown = nullptr);

 private:
  /// The session a request addresses: its explicit one, or the
  /// connection's implicit session (opened on first use).
  bool resolve_session(const Request& req, SessionId& out, Error& err);
  /// Routes one parsed request to its op handler, which stamps `rec`; the
  /// reply lacks the server_us object, which dispatch() injects.
  [[nodiscard]] std::string dispatch_op(const Request& req, bool* shutdown,
                                        RequestRecord& rec);

  TimingService* service_;
  const ServerOptions* server_;
  std::vector<SessionId> owned_;
  SessionId implicit_ = -1;
};

}  // namespace insta::serve
