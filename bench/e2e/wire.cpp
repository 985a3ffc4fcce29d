#include "wire.hpp"

#include <fcntl.h>
#include <poll.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <thread>

#include "common.hpp"

namespace insta::e2e {

namespace {

int poll_ms_until(std::int64_t deadline_ns) {
  const std::int64_t left = deadline_ns - now_ns();
  if (left <= 0) return 0;
  return static_cast<int>(std::min<std::int64_t>(left / 1000000 + 1, 1000));
}

}  // namespace

// ---- ServerProcess ----------------------------------------------------------

ServerProcess::ServerProcess(const std::string& cli,
                             const std::vector<std::string>& args,
                             const std::string& log_path) {
  std::vector<std::string> argv_s = {cli, "serve"};
  argv_s.insert(argv_s.end(), args.begin(), args.end());
  std::vector<char*> argv;
  for (std::string& a : argv_s) argv.push_back(a.data());
  argv.push_back(nullptr);

  int pipefd[2];
  if (::pipe(pipefd) != 0) return;
  const int log_fd =
      ::open(log_path.c_str(), O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC, 0644);
  const pid_t parent = ::getpid();
  const pid_t pid = ::fork();
  if (pid == 0) {
    // Only async-signal-safe calls between fork and exec.
    ::prctl(PR_SET_PDEATHSIG, SIGKILL);
    if (::getppid() != parent) ::_exit(127);
    ::dup2(pipefd[1], STDOUT_FILENO);
    if (log_fd >= 0) ::dup2(log_fd, STDERR_FILENO);
    ::close(pipefd[0]);
    ::close(pipefd[1]);
    ::execv(argv[0], argv.data());
    ::_exit(127);
  }
  ::close(pipefd[1]);
  if (log_fd >= 0) ::close(log_fd);
  if (pid < 0) {
    ::close(pipefd[0]);
    return;
  }
  pid_ = pid;
  out_fd_ = pipefd[0];
  ::fcntl(out_fd_, F_SETFL, ::fcntl(out_fd_, F_GETFL) | O_NONBLOCK);
}

ServerProcess::~ServerProcess() {
  if (pid_ > 0) {
    ::kill(pid_, SIGKILL);
    ::waitpid(pid_, nullptr, 0);
  }
  if (out_fd_ >= 0) ::close(out_fd_);
}

bool ServerProcess::wait_ready(double timeout_sec) {
  if (pid_ <= 0) return false;
  const std::int64_t deadline =
      now_ns() + static_cast<std::int64_t>(timeout_sec * 1e9);
  while (now_ns() < deadline) {
    pollfd p{out_fd_, POLLIN, 0};
    if (::poll(&p, 1, poll_ms_until(deadline)) < 0 && errno != EINTR) {
      return false;
    }
    char chunk[4096];
    for (;;) {
      const ssize_t n = ::read(out_fd_, chunk, sizeof(chunk));
      if (n > 0) {
        out_buf_.append(chunk, static_cast<std::size_t>(n));
        continue;
      }
      if (n == 0) return out_buf_.find("serving on") != std::string::npos;
      break;  // EAGAIN: nothing more for now
    }
    if (out_buf_.find("serving on") != std::string::npos) return true;
  }
  return false;
}

double ServerProcess::peak_rss_mb() const {
  if (pid_ <= 0) return 0.0;
  std::ifstream f("/proc/" + std::to_string(pid_) + "/status");
  std::string line;
  while (std::getline(f, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) * 1024.0 / 1e6;  // kB -> MB
    }
  }
  return 0.0;
}

bool ServerProcess::stop(const std::string& socket_path, double timeout_sec) {
  if (pid_ <= 0) return false;
  {
    Conn c;
    std::string reply;
    if (c.connect(socket_path)) {
      (void)c.request("{\"op\": \"shutdown\"}", reply, timeout_sec);
    }
  }
  const std::int64_t deadline =
      now_ns() + static_cast<std::int64_t>(timeout_sec * 1e9);
  int status = 0;
  for (;;) {
    const pid_t r = ::waitpid(pid_, &status, WNOHANG);
    if (r == pid_) break;
    if (r < 0 || now_ns() >= deadline) {
      ::kill(pid_, SIGKILL);
      ::waitpid(pid_, nullptr, 0);
      pid_ = -1;
      return false;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  pid_ = -1;
  return WIFEXITED(status) && WEXITSTATUS(status) == 0;
}

// ---- Conn -------------------------------------------------------------------

Conn::~Conn() {
  if (fd_ >= 0) ::close(fd_);
}

Conn::Conn(Conn&& other) noexcept
    : fd_(other.fd_), buf_(std::move(other.buf_)) {
  other.fd_ = -1;
}

bool Conn::connect(const std::string& path) {
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  if (path.size() >= sizeof(addr.sun_path)) return false;
  std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
  fd_ = ::socket(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd_ < 0) return false;
  if (::connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd_);
    fd_ = -1;
    return false;
  }
  ::fcntl(fd_, F_SETFL, ::fcntl(fd_, F_GETFL) | O_NONBLOCK);
  return true;
}

bool Conn::send_line(std::string_view line) {
  out_.append(line);
  out_.push_back('\n');
  return flush();
}

bool Conn::flush() {
  std::size_t sent = 0;
  while (sent < out_.size()) {
    const ssize_t n =
        ::send(fd_, out_.data() + sent, out_.size() - sent, MSG_NOSIGNAL);
    if (n > 0) {
      sent += static_cast<std::size_t>(n);
    } else if (n < 0 && errno == EINTR) {
      continue;
    } else if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
      break;
    } else {
      return false;
    }
  }
  out_.erase(0, sent);
  return true;
}

bool Conn::read_lines(std::vector<std::string>& lines) {
  char chunk[65536];
  for (;;) {
    const ssize_t n = ::recv(fd_, chunk, sizeof(chunk), 0);
    if (n > 0) {
      buf_.append(chunk, static_cast<std::size_t>(n));
      continue;
    }
    if (n == 0) return false;
    if (errno == EAGAIN || errno == EWOULDBLOCK) break;
    if (errno != EINTR) return false;
  }
  std::size_t start = 0;
  for (std::size_t nl; (nl = buf_.find('\n', start)) != std::string::npos;
       start = nl + 1) {
    lines.emplace_back(buf_, start, nl - start);
  }
  buf_.erase(0, start);
  return true;
}

bool Conn::request(std::string_view line, std::string& reply,
                   double timeout_sec) {
  if (!send_line(line)) return false;
  const std::int64_t deadline =
      now_ns() + static_cast<std::int64_t>(timeout_sec * 1e9);
  std::vector<std::string> lines;
  while (lines.empty()) {
    if (now_ns() >= deadline) return false;
    pollfd p{fd_, static_cast<short>(POLLIN | (has_pending() ? POLLOUT : 0)),
             0};
    (void)::poll(&p, 1, poll_ms_until(deadline));
    if (!flush() || (!read_lines(lines) && lines.empty())) return false;
  }
  reply = std::move(lines.front());
  return true;
}

// ---- EventLoop --------------------------------------------------------------

EventLoop::EventLoop(std::vector<Conn>& conns)
    : conns_(&conns), pending_(conns.size()), dead_(conns.size(), false) {}

void EventLoop::send(std::size_t conn, const std::string& line, int kind,
                  std::size_t tag, std::int64_t due_ns) {
  Outstanding o;
  o.due_ns = due_ns;
  o.kind = kind;
  o.tag = tag;
  o.sent_ns = now_ns();
  if (dead_[conn] || !(*conns_)[conn].send_line(line)) {
    dead_[conn] = true;
    ++lost_;
    return;
  }
  pending_[conn].push_back(o);
}

void EventLoop::every(std::int64_t first_ns, std::int64_t interval_ns,
                   FireFn fire) {
  schedules_.push_back({first_ns, interval_ns, std::move(fire)});
}

std::size_t EventLoop::least_loaded(std::size_t first, std::size_t last) const {
  std::size_t best = first;
  for (std::size_t c = first; c < last; ++c) {
    if (!dead_[c] &&
        (dead_[best] || pending_[c].size() < pending_[best].size())) {
      best = c;
    }
  }
  return best;
}

std::size_t EventLoop::run(std::int64_t end_ns, double drain_sec,
                        const ReplyFn& on_reply) {
  const std::int64_t drain_end =
      end_ns + static_cast<std::int64_t>(drain_sec * 1e9);
  std::vector<pollfd> fds(conns_->size());
  std::vector<std::string> lines;
  for (;;) {
    const std::int64_t now = now_ns();
    // Fire every schedule that is due (all missed slots too: an open loop
    // never skips a send because the sender fell behind).
    std::int64_t next_due = end_ns;
    if (now < end_ns) {
      for (Schedule& s : schedules_) {
        while (s.next_ns <= now_ns() && s.next_ns < end_ns) {
          const std::int64_t due = s.next_ns;
          s.next_ns += s.interval_ns;
          s.fire(due);
          lateness_ms_.push_back(static_cast<double>(now_ns() - due) * 1e-6);
        }
        next_due = std::min(next_due, s.next_ns);
      }
    }
    std::size_t inflight = 0;
    for (const auto& p : pending_) inflight += p.size();
    if (inflight == 0 && (now >= end_ns || schedules_.empty())) break;
    if (now >= drain_end) break;

    const std::int64_t wake =
        now < end_ns ? std::min(next_due, end_ns) : drain_end;
    for (std::size_t c = 0; c < fds.size(); ++c) {
      const Conn& conn = (*conns_)[c];
      fds[c] = {dead_[c] ? -1 : conn.fd(),
                static_cast<short>(POLLIN | (conn.has_pending() ? POLLOUT : 0)),
                0};
    }
    // ppoll: nanosecond wake-ups keep open-loop sends on schedule without
    // spinning.
    const std::int64_t left = std::max<std::int64_t>(0, wake - now_ns());
    const timespec ts{static_cast<time_t>(left / 1000000000),
                      static_cast<long>(left % 1000000000)};
    if (::ppoll(fds.data(), fds.size(), &ts, nullptr) < 0 && errno != EINTR) {
      break;
    }
    for (std::size_t c = 0; c < fds.size(); ++c) {
      if (dead_[c] || fds[c].revents == 0) continue;
      lines.clear();
      const bool alive =
          (*conns_)[c].flush() && (*conns_)[c].read_lines(lines);
      const std::int64_t recv = now_ns();
      for (const std::string& line : lines) {
        if (pending_[c].empty()) break;  // unsolicited line: ignore
        const Outstanding o = pending_[c].front();
        pending_[c].pop_front();
        on_reply(c, o, line, recv);
      }
      if (!alive) {
        dead_[c] = true;
        lost_ += pending_[c].size();
        pending_[c].clear();
      }
    }
  }
  for (auto& p : pending_) {
    lost_ += p.size();
    p.clear();
  }
  const std::size_t lost = lost_;
  lost_ = 0;
  return lost;
}

}  // namespace insta::e2e
