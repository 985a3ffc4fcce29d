#include "serve/client.hpp"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <cerrno>
#include <charconv>
#include <cstdint>
#include <cstring>

#include "util/check.hpp"

namespace insta::serve {

namespace {

using telemetry::JsonValue;
using util::check;

/// errno rendered through the single NOLINT'd strerror call site: the
/// static buffer is copied into the returned string immediately.
std::string errno_text() {
  return std::strerror(errno);  // NOLINT(concurrency-mt-unsafe)
}

/// Resolves `endpoint` into a socket address without opening a socket;
/// returns the problem, naming the endpoint, or "" when it is usable.
std::string resolve_endpoint(const std::string& endpoint,
                             sockaddr_storage& addr, socklen_t& len) {
  if (endpoint.rfind("unix:", 0) == 0) {
    const std::string path = endpoint.substr(5);
    auto* un = reinterpret_cast<sockaddr_un*>(&addr);
    if (path.size() >= sizeof(un->sun_path)) {
      return "unix path too long: " + path;
    }
    un->sun_family = AF_UNIX;
    std::strncpy(un->sun_path, path.c_str(), sizeof(un->sun_path) - 1);
    len = sizeof(sockaddr_un);
    return "";
  }
  const std::size_t colon = endpoint.rfind(':');
  if (colon == std::string::npos) {
    return "endpoint must be unix:/path or host:port, got " + endpoint;
  }
  const char* last = endpoint.data() + endpoint.size();
  int port = 0;
  const auto [end, ec] =
      std::from_chars(endpoint.data() + colon + 1, last, port);
  if (ec != std::errc() || end != last || port < 1 || port > 65535) {
    return "endpoint " + endpoint + ": port must be an integer in [1, 65535]";
  }
  const std::string host = endpoint.substr(0, colon);
  auto* in = reinterpret_cast<sockaddr_in*>(&addr);
  in->sin_family = AF_INET;
  in->sin_port = htons(static_cast<std::uint16_t>(port));
  if (::inet_pton(AF_INET, host.c_str(), &in->sin_addr) != 1) {
    return "endpoint " + endpoint + ": cannot parse host address " + host;
  }
  len = sizeof(sockaddr_in);
  return "";
}

}  // namespace

std::string endpoint_problem(const std::string& endpoint) {
  sockaddr_storage addr{};
  socklen_t len = 0;
  return resolve_endpoint(endpoint, addr, len);
}

Client::Client(const std::string& endpoint) {
  sockaddr_storage addr{};
  socklen_t len = 0;
  const std::string problem = resolve_endpoint(endpoint, addr, len);
  check(problem.empty(), problem);
  fd_ = ::socket(addr.ss_family, SOCK_STREAM, 0);
  check(fd_ >= 0, "socket: " + errno_text());
  if (::connect(fd_, reinterpret_cast<const sockaddr*>(&addr), len) != 0) {
    const std::string why = errno_text();
    ::close(fd_);
    fd_ = -1;
    check(false, "connect " + endpoint + ": " + why);
  }
}

Client::~Client() {
  if (fd_ >= 0) ::close(fd_);
}

std::string Client::request(const std::string& line) {
  send_line(line);
  return recv_line();
}

void Client::send_line(const std::string& line) {
  const std::string framed = line + "\n";
  std::size_t off = 0;
  while (off < framed.size()) {
    const ssize_t n =
        ::send(fd_, framed.data() + off, framed.size() - off, MSG_NOSIGNAL);
    check(n > 0 || errno == EINTR, "send: " + errno_text());
    if (n > 0) off += static_cast<std::size_t>(n);
  }
}

std::string Client::recv_line() {
  for (;;) {
    const std::size_t nl = buffer_.find('\n');
    if (nl != std::string::npos) {
      std::string line = buffer_.substr(0, nl);
      buffer_.erase(0, nl + 1);
      return line;
    }
    char chunk[4096];
    const ssize_t n = ::recv(fd_, chunk, sizeof(chunk), 0);
    if (n < 0 && errno == EINTR) continue;
    check(n > 0, "server closed the connection");
    buffer_.append(chunk, static_cast<std::size_t>(n));
  }
}

JsonValue parse_reply(const std::string& line) {
  JsonValue doc;
  std::string error;
  // A snapshot reply runs to megabytes; quote only its head.
  check(telemetry::json_parse(line, doc, error),
        "malformed reply line: " + error + ": " + line.substr(0, 200));
  return doc;
}

bool reply_ok(const JsonValue& reply) {
  const JsonValue* ok = reply.find("ok");
  return ok != nullptr && ok->type == JsonValue::Type::kBool && ok->boolean;
}

std::string reply_error_code(const JsonValue& reply) {
  if (const JsonValue* err = reply.find("error");
      err != nullptr && err->is_object()) {
    if (const JsonValue* code = err->find("code");
        code != nullptr && code->is_string()) {
      return code->string;
    }
  }
  return "";
}

const JsonValue& require_result(const JsonValue& reply,
                                const std::string& what) {
  if (!reply_ok(reply)) {
    std::string message = "server rejected the request";
    if (const JsonValue* err = reply.find("error");
        err != nullptr && err->is_object()) {
      if (const JsonValue* msg = err->find("message");
          msg != nullptr && msg->is_string()) {
        message = msg->string;
      }
    }
    check(false, what + ": " + message);
  }
  const JsonValue* result = reply.find("result");
  check(result != nullptr, what + ": reply has no result");
  return *result;
}

}  // namespace insta::serve
