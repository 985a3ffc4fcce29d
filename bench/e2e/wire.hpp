#pragma once

// The service workloads' side of the wire: child `insta_cli serve`
// processes, Unix-socket NDJSON connections, and a single-threaded event
// loop that drives up to four connections with open-loop schedules and
// closed-loop follow-ups.

#include <sys/types.h>

#include <cstdint>
#include <deque>
#include <functional>
#include <string>
#include <string_view>
#include <vector>

namespace insta::e2e {

/// One child `insta_cli serve` process. Its stdout is read up to the
/// "serving on" handshake; stderr goes to a log file. The child is killed
/// with the benchmark (PR_SET_PDEATHSIG) and by the destructor if still
/// running, so no server outlives a run.
class ServerProcess {
 public:
  ServerProcess(const std::string& cli, const std::vector<std::string>& args,
                const std::string& log_path);
  ~ServerProcess();
  ServerProcess(const ServerProcess&) = delete;
  ServerProcess& operator=(const ServerProcess&) = delete;

  /// Blocks until the child prints "serving on" (true), exits, or the
  /// timeout passes (false).
  bool wait_ready(double timeout_sec);

  /// Peak resident set (VmHWM) of the child, MB; 0 once it has exited.
  [[nodiscard]] double peak_rss_mb() const;

  /// Sends the shutdown op over `socket_path` and reaps the child, killing
  /// it after `timeout_sec`. True when it exited on its own with status 0.
  bool stop(const std::string& socket_path, double timeout_sec);

 private:
  pid_t pid_ = -1;
  int out_fd_ = -1;
  std::string out_buf_;
};

/// A nonblocking NDJSON connection: a sender never stalls on a server that
/// stops reading; unwritten requests queue until the socket takes them.
class Conn {
 public:
  Conn() = default;
  ~Conn();
  Conn(Conn&& other) noexcept;
  Conn& operator=(Conn&&) = delete;
  Conn(const Conn&) = delete;
  Conn& operator=(const Conn&) = delete;

  /// Connects to a Unix socket path. False on failure.
  bool connect(const std::string& path);
  [[nodiscard]] int fd() const { return fd_; }

  /// Queues one request line (newline appended) and writes what the socket
  /// takes without blocking; flush() writes the rest. False on error.
  bool send_line(std::string_view line);

  /// Writes queued bytes without blocking. False on error.
  bool flush();
  [[nodiscard]] bool has_pending() const { return !out_.empty(); }

  /// Reads what is available and appends every complete reply line to
  /// `lines`. False on EOF or error.
  bool read_lines(std::vector<std::string>& lines);

  /// One blocking round trip (control traffic outside the timed phases).
  bool request(std::string_view line, std::string& reply, double timeout_sec);

 private:
  int fd_ = -1;
  std::string buf_;  ///< received bytes not yet split into lines
  std::string out_;  ///< queued request bytes the socket has not taken
};

/// One request in flight.
struct Outstanding {
  std::int64_t due_ns = 0;   ///< scheduled send time (open loop) or send time
  std::int64_t sent_ns = 0;
  int kind = 0;              ///< workload-defined op class
  std::size_t tag = 0;       ///< workload-defined payload index
};

/// Single-threaded event loop over a set of connections. Replies arrive in
/// order per connection; the reply callback may send follow-ups (closed
/// loops, edit sequences). Open-loop schedules fire at fixed intervals and
/// record how late the sender ran.
class EventLoop {
 public:
  using ReplyFn = std::function<void(std::size_t conn, const Outstanding& o,
                                     std::string_view line,
                                     std::int64_t recv_ns)>;
  using FireFn = std::function<void(std::int64_t due_ns)>;

  explicit EventLoop(std::vector<Conn>& conns);

  void send(std::size_t conn, const std::string& line, int kind,
            std::size_t tag, std::int64_t due_ns);

  /// Adds an open-loop schedule firing every interval from first_ns.
  void every(std::int64_t first_ns, std::int64_t interval_ns, FireFn fire);
  void clear_schedules() { schedules_.clear(); }

  /// Requests in flight on one connection.
  [[nodiscard]] std::size_t inflight(std::size_t conn) const {
    return pending_[conn].size();
  }
  /// The connection among [first, last) with the fewest requests in flight.
  [[nodiscard]] std::size_t least_loaded(std::size_t first,
                                         std::size_t last) const;

  /// Fires schedules until end_ns, then waits up to drain_sec for every
  /// outstanding reply; without schedules it returns as soon as nothing is
  /// in flight. Returns the number of requests that never got a reply
  /// (timed out or lost with a dropped connection).
  std::size_t run(std::int64_t end_ns, double drain_sec,
                  const ReplyFn& on_reply);

  /// Sender lateness of every open-loop send so far, ms.
  [[nodiscard]] const std::vector<double>& lateness_ms() const {
    return lateness_ms_;
  }

 private:
  struct Schedule {
    std::int64_t next_ns;
    std::int64_t interval_ns;
    FireFn fire;
  };
  std::vector<Conn>* conns_;
  std::vector<std::deque<Outstanding>> pending_;
  std::vector<bool> dead_;
  std::vector<Schedule> schedules_;
  std::vector<double> lateness_ms_;
  std::size_t lost_ = 0;
};

}  // namespace insta::e2e
