#pragma once

// Client — the one blocking client of the NDJSON timing-query protocol,
// plus the reply helpers every caller shares. The CLI's client and top
// subcommands, the replica's upstream connection, and the socket tests all
// speak through it.

#include <string>

#include "telemetry/json.hpp"

namespace insta::serve {

/// One blocking connection to `unix:/path` or `host:port` (IPv4 literal,
/// port in [1, 65535]). request() sends one line and returns the matching
/// reply line; every failure, a malformed endpoint included, throws
/// util::CheckError. Sends never raise SIGPIPE.
class Client {
 public:
  explicit Client(const std::string& endpoint);
  ~Client();
  Client(const Client&) = delete;
  Client& operator=(const Client&) = delete;

  std::string request(const std::string& line);
  /// The next reply line, without its newline; throws when the server
  /// closes the connection before completing one.
  std::string recv_line();

 private:
  void send_line(const std::string& line);

  int fd_ = -1;
  std::string buffer_;
};

/// The message Client's constructor would throw for a malformed `endpoint`,
/// or "" when it is well-formed. Opens no socket.
[[nodiscard]] std::string endpoint_problem(const std::string& endpoint);

/// Parses a reply line; throws on malformed JSON (the server always sends
/// well-formed replies, so this is a protocol fault, not user input).
[[nodiscard]] telemetry::JsonValue parse_reply(const std::string& line);

/// True when the reply carries "ok": true.
[[nodiscard]] bool reply_ok(const telemetry::JsonValue& reply);

/// The reply's error.code ("overloaded", "bad-request", ...), or "".
[[nodiscard]] std::string reply_error_code(const telemetry::JsonValue& reply);

/// reply.result after checking ok; throws "<what>: <server message>" when
/// the server refused, or "<what>: reply has no result".
const telemetry::JsonValue& require_result(const telemetry::JsonValue& reply,
                                           const std::string& what);

}  // namespace insta::serve
