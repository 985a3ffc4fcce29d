#pragma once

// Socket front end of the TimingService: accepts Unix-domain or local TCP
// connections and speaks the newline-delimited-JSON protocol, one
// Dispatcher (and hence one implicit session) per connection. A connection
// beyond max_connections is not queued: it receives one structured
// "overloaded" error line and is closed (admission control at the edge,
// matching the service's bounded-queue behaviour inside).

#include <atomic>
#include <cstdint>
#include <string>
#include <thread>
#include <vector>

#include "serve/service.hpp"
#include "util/mutex.hpp"
#include "util/thread_annotations.hpp"

namespace insta::serve {

struct ServerOptions {
  /// When non-empty, serve on this Unix-domain socket path (unlinked on
  /// start and on stop); otherwise TCP on host:port.
  std::string unix_path;
  std::string host = "127.0.0.1";
  /// TCP port; 0 binds an ephemeral port (read it back via port()).
  int port = 0;
  /// Concurrent-connection cap; excess connections are shed.
  int max_connections = 32;
  /// Slow-request log threshold in microseconds, read by every
  /// connection's Dispatcher: 0 logs every request, negative disables.
  std::int64_t slow_us = -1;

  [[nodiscard]] std::vector<std::string> validate() const;
};

/// A started server owns one listener thread plus one thread per live
/// connection. All threads are joined by stop() (also run by the
/// destructor). A client shutdown op makes wait() return; the owner then
/// calls stop().
class Server {
 public:
  Server(TimingService& service, ServerOptions options);
  ~Server();
  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Binds, listens, and spawns the accept loop. Throws util::CheckError
  /// on socket/bind/listen failure (message carries errno text).
  void start();

  /// Closes the listener and every live connection, then joins all
  /// threads. Idempotent.
  void stop();

  /// Blocks until a client sends a shutdown op or stop() is called.
  void wait();

  /// Bound TCP port (the ephemeral one when options.port was 0); 0 when
  /// serving a Unix socket.
  [[nodiscard]] int port() const { return bound_port_; }

  /// Printable endpoint ("unix:/path" or "host:port").
  [[nodiscard]] const std::string& endpoint() const { return endpoint_; }

  [[nodiscard]] bool shutdown_requested() const {
    return shutdown_.load(std::memory_order_acquire);
  }

 private:
  void accept_loop();
  void handle_connection(int fd);

  TimingService* service_;
  ServerOptions options_;
  int listen_fd_ = -1;
  int bound_port_ = 0;
  std::string endpoint_;
  std::thread accept_thread_;

  util::Mutex conn_mu_{"serve.conn", util::lockrank::kServerConn};
  std::vector<std::thread> conn_threads_ INSTA_GUARDED_BY(conn_mu_);
  std::vector<int> conn_fds_ INSTA_GUARDED_BY(conn_mu_);
  std::atomic<int> active_connections_{0};

  std::atomic<bool> stopping_{false};
  std::atomic<bool> shutdown_{false};
  util::Mutex wait_mu_{"serve.wait", util::lockrank::kServerWait};
  util::CondVar wait_cv_;
};

}  // namespace insta::serve
