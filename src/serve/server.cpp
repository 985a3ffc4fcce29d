#include "serve/server.hpp"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <utility>

#include "serve/protocol.hpp"
#include "util/check.hpp"
#include "util/log.hpp"

namespace insta::serve {

using util::check;

namespace {

std::string errno_text(const std::string& what) {
  // Single-threaded use of the static strerror buffer is fine here: the
  // result is copied into the returned string before any other call.
  return what + ": " + std::strerror(errno);  // NOLINT(concurrency-mt-unsafe)
}

/// Sends the whole buffer, suppressing SIGPIPE; false on any failure.
bool send_all(int fd, std::string_view data) {
  std::size_t off = 0;
  while (off < data.size()) {
    const ssize_t n = ::send(fd, data.data() + off, data.size() - off,
                             MSG_NOSIGNAL);
    if (n <= 0) {
      if (n < 0 && errno == EINTR) continue;
      return false;
    }
    off += static_cast<std::size_t>(n);
  }
  return true;
}

}  // namespace

std::vector<std::string> ServerOptions::validate() const {
  std::vector<std::string> problems;
  if (unix_path.empty()) {
    if (port < 0 || port > 65535) {
      problems.emplace_back("port must be in [0, 65535]");
    }
    if (host.empty()) problems.emplace_back("host must not be empty");
  } else if (unix_path.size() >= sizeof(sockaddr_un{}.sun_path)) {
    problems.emplace_back("unix_path is too long for sockaddr_un");
  }
  if (max_connections < 1) {
    problems.emplace_back("max_connections must be >= 1");
  }
  return problems;
}

Server::Server(TimingService& service, ServerOptions options)
    : service_(&service), options_(std::move(options)) {
  check_valid(options_.validate(), "Server: invalid ServerOptions:");
}

Server::~Server() { stop(); }

void Server::start() {
  check(listen_fd_ < 0, "Server::start: already started");
  if (!options_.unix_path.empty()) {
    listen_fd_ = ::socket(AF_UNIX, SOCK_STREAM, 0);
    check(listen_fd_ >= 0, errno_text("socket(AF_UNIX)"));
    ::unlink(options_.unix_path.c_str());
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    std::strncpy(addr.sun_path, options_.unix_path.c_str(),
                 sizeof(addr.sun_path) - 1);
    if (::bind(listen_fd_, reinterpret_cast<const sockaddr*>(&addr),
               sizeof(addr)) != 0) {
      const std::string msg = errno_text("bind(" + options_.unix_path + ")");
      ::close(listen_fd_);
      listen_fd_ = -1;
      check(false, msg);
    }
    endpoint_ = "unix:" + options_.unix_path;
  } else {
    listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    check(listen_fd_ >= 0, errno_text("socket(AF_INET)"));
    const int one = 1;
    ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(static_cast<std::uint16_t>(options_.port));
    if (::inet_pton(AF_INET, options_.host.c_str(), &addr.sin_addr) != 1) {
      ::close(listen_fd_);
      listen_fd_ = -1;
      check(false, "Server: cannot parse host address " + options_.host);
    }
    if (::bind(listen_fd_, reinterpret_cast<const sockaddr*>(&addr),
               sizeof(addr)) != 0) {
      const std::string msg =
          errno_text("bind(" + options_.host + ":" +
                     std::to_string(options_.port) + ")");
      ::close(listen_fd_);
      listen_fd_ = -1;
      check(false, msg);
    }
    sockaddr_in bound{};
    socklen_t len = sizeof(bound);
    ::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&bound), &len);
    bound_port_ = static_cast<int>(ntohs(bound.sin_port));
    endpoint_ = options_.host + ":" + std::to_string(bound_port_);
  }
  if (::listen(listen_fd_, 64) != 0) {
    const std::string msg = errno_text("listen");
    ::close(listen_fd_);
    listen_fd_ = -1;
    check(false, msg);
  }
  stopping_.store(false, std::memory_order_release);
  accept_thread_ = std::thread([this] { accept_loop(); });
  util::log_info("serve: listening on " + endpoint_);
}

void Server::accept_loop() {
  while (!stopping_.load(std::memory_order_acquire)) {
    const int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) {
      if (errno == EINTR) continue;
      break;  // listener closed by stop()
    }
    if (active_connections_.load(std::memory_order_acquire) >=
        options_.max_connections) {
      // Shed at the edge with one structured reply, mirroring the
      // service's bounded-queue behaviour.
      send_all(fd, error_reply(0, ErrorCode::kOverloaded,
                               "connection limit reached (" +
                                   std::to_string(options_.max_connections) +
                                   ")") +
                       "\n");
      ::close(fd);
      continue;
    }
    active_connections_.fetch_add(1, std::memory_order_acq_rel);
    const util::LockGuard cl(conn_mu_);
    conn_fds_.push_back(fd);
    conn_threads_.emplace_back([this, fd] { handle_connection(fd); });
  }
}

void Server::handle_connection(int fd) {
  Dispatcher dispatcher(*service_, &options_);
  std::string buffer;
  char chunk[4096];
  bool shutdown_op = false;
  bool dead_peer = false;
  while (!shutdown_op && !stopping_.load(std::memory_order_acquire)) {
    const ssize_t n = ::recv(fd, chunk, sizeof(chunk), 0);
    if (n <= 0) {
      if (n < 0 && errno == EINTR) continue;
      break;  // peer closed or stop() shut the socket down
    }
    buffer.append(chunk, static_cast<std::size_t>(n));
    std::size_t start = 0;
    for (std::size_t nl = buffer.find('\n', start);
         nl != std::string::npos && !shutdown_op;
         nl = buffer.find('\n', start)) {
      const std::string_view line(buffer.data() + start, nl - start);
      start = nl + 1;
      if (line.empty()) continue;  // tolerate keep-alive blank lines
      const std::string reply = dispatcher.dispatch(line, &shutdown_op);
      if (!send_all(fd, reply + "\n") && !shutdown_op) {
        // Peer is gone; drop the rest of the buffered input.
        start = buffer.size();
        shutdown_op = true;  // reuse the flag to leave the recv loop
        dead_peer = true;
        break;
      }
    }
    buffer.erase(0, start);
  }
  ::close(fd);
  active_connections_.fetch_sub(1, std::memory_order_acq_rel);
  {
    const util::LockGuard cl(conn_mu_);
    conn_fds_.erase(std::remove(conn_fds_.begin(), conn_fds_.end(), fd),
                    conn_fds_.end());
  }
  if (shutdown_op && !dead_peer) {
    shutdown_.store(true, std::memory_order_release);
    // Lock/unlock wait_mu_ before notifying so a waiter between its
    // predicate check and its block cannot miss the wakeup.
    {
      const util::LockGuard wl(wait_mu_);
    }
    wait_cv_.notify_all();
  }
}

void Server::stop() {
  if (stopping_.exchange(true, std::memory_order_acq_rel)) {
    // Second caller: still wait for the threads if the first stop() is
    // somehow incomplete (idempotence for ~Server after explicit stop()).
  }
  // shutdown() wakes the accept thread out of ::accept; the fd is closed
  // and reset only after the join, since accept_loop reads listen_fd_.
  if (listen_fd_ >= 0) ::shutdown(listen_fd_, SHUT_RDWR);
  if (accept_thread_.joinable()) accept_thread_.join();
  if (listen_fd_ >= 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
  }
  {
    const util::LockGuard cl(conn_mu_);
    for (const int fd : conn_fds_) ::shutdown(fd, SHUT_RDWR);
  }
  // Connection threads observe the shutdown via recv() returning and
  // remove themselves; joining outside conn_mu_ would race the vector, so
  // move it out first.
  std::vector<std::thread> threads;
  {
    const util::LockGuard cl(conn_mu_);
    threads.swap(conn_threads_);
  }
  for (std::thread& t : threads) {
    if (t.joinable()) t.join();
  }
  if (!options_.unix_path.empty()) ::unlink(options_.unix_path.c_str());
  {
    const util::LockGuard wl(wait_mu_);
  }
  wait_cv_.notify_all();
}

void Server::wait() {
  util::UniqueLock wl(wait_mu_);
  // Predicate reads only atomics, safe for the lambda-blind analysis.
  wait_cv_.wait(wl, [this] {
    return shutdown_.load(std::memory_order_acquire) ||
           stopping_.load(std::memory_order_acquire);
  });
}

}  // namespace insta::serve
