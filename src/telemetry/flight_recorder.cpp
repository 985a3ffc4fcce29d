#include "telemetry/flight_recorder.hpp"

#include <csignal>
#include <cstdio>
#include <unistd.h>

#include <algorithm>
#include <thread>

#include "analysis/lock_hierarchy.hpp"
#include "telemetry/json.hpp"

namespace insta::telemetry {

const char* flight_event_name(FlightEventType type) {
  switch (type) {
    case FlightEventType::kAdmit: return "admit";
    case FlightEventType::kEnqueue: return "enqueue";
    case FlightEventType::kBatch: return "batch";
    case FlightEventType::kEval: return "eval";
    case FlightEventType::kReply: return "reply";
    case FlightEventType::kShed: return "shed";
  }
  return "unknown";
}

namespace {

/// Best-effort fd write for the abort/signal dump paths.
void write_fd(int fd, const char* buf, int len) {
  if (len <= 0) return;
  ssize_t off = 0;
  while (off < len) {
    const ssize_t n = ::write(fd, buf + off, static_cast<std::size_t>(len) -
                                                 static_cast<std::size_t>(off));
    if (n <= 0) return;
    off += n;
  }
}

extern "C" void flight_signal_handler(int sig) {
  char buf[96];
  const int len = std::snprintf(
      buf, sizeof(buf), "\n[INSTA] fatal signal %d; flight recorder:\n", sig);
  write_fd(2, buf, len);
  FlightRecorder::global().dump(2);
  // SA_RESETHAND restored the default disposition; re-raise to die with
  // the original signal (and the core dump it implies).
  ::raise(sig);
}

}  // namespace

FlightRecorder& FlightRecorder::global() {
  static FlightRecorder recorder;
  // Hook the lock-hierarchy abort path on first use: a rank violation then
  // dumps the last request events alongside its stacks, answering "what
  // was the server doing when it died".
  static const bool hooked = [] {
    analysis::lock_check_set_abort_hook(
        [] { FlightRecorder::global().dump(2); });
    return true;
  }();
  (void)hooked;
  return recorder;
}

void FlightRecorder::record(FlightEventType type, std::uint64_t ts_ns,
                            std::uint64_t request_id, std::uint64_t generation,
                            std::uint32_t detail) {
  const std::uint64_t ticket = next_.fetch_add(1, std::memory_order_acq_rel);
  Slot& s = slots_[ticket % kCapacity];
  // Seqlock write: odd (keyed to the ticket) marks the slot claimed and
  // torn, even publishes it. The claim is a CAS from an older ticket's
  // published (even) value, so at most one writer ever fills a slot:
  //  - a newer ticket already there means this writer was lapped by a full
  //    ring rotation, and its older event is dropped;
  //  - an older ticket mid-write (odd) is waited out. That needs a writer
  //    stalled for a whole rotation, and it keeps a slow writer from
  //    storing its payload into, or publishing over, a newer event.
  const std::uint64_t claimed = 2 * ticket + 1;
  std::uint64_t cur = s.seq.load(std::memory_order_acquire);
  for (;;) {
    if (cur >= claimed) return;
    if ((cur & 1U) != 0) {
      std::this_thread::yield();
      cur = s.seq.load(std::memory_order_acquire);
      continue;
    }
    if (s.seq.compare_exchange_weak(cur, claimed, std::memory_order_acquire,
                                    std::memory_order_acquire)) {
      break;
    }
  }
  // Orders the claim before the payload stores for readers that fence
  // after copying (read_slot).
  std::atomic_thread_fence(std::memory_order_release);
  s.ts_ns.store(ts_ns, std::memory_order_relaxed);
  s.request_id.store(request_id, std::memory_order_relaxed);
  s.generation.store(generation, std::memory_order_relaxed);
  s.detail_type.store((static_cast<std::uint64_t>(detail) << 8U) |
                          static_cast<std::uint64_t>(type),
                      std::memory_order_relaxed);
  s.seq.store(claimed + 1, std::memory_order_release);
}

bool FlightRecorder::read_slot(std::uint64_t ticket, FlightEvent& out) const {
  const Slot& s = slots_[ticket % kCapacity];
  const std::uint64_t want = 2 * ticket + 2;
  if (s.seq.load(std::memory_order_acquire) != want) return false;
  out.ts_ns = s.ts_ns.load(std::memory_order_relaxed);
  out.request_id = s.request_id.load(std::memory_order_relaxed);
  out.generation = s.generation.load(std::memory_order_relaxed);
  const std::uint64_t dt = s.detail_type.load(std::memory_order_relaxed);
  out.detail = static_cast<std::uint32_t>(dt >> 8U);
  out.type = static_cast<FlightEventType>(dt & 0xFFU);
  std::atomic_thread_fence(std::memory_order_acquire);
  return s.seq.load(std::memory_order_relaxed) == want;
}

std::vector<FlightEvent> FlightRecorder::recent(std::size_t max_events) const {
  const std::uint64_t end = next_.load(std::memory_order_acquire);
  const std::uint64_t n =
      std::min({end, static_cast<std::uint64_t>(kCapacity),
                static_cast<std::uint64_t>(max_events)});
  std::vector<FlightEvent> out;
  out.reserve(static_cast<std::size_t>(n));
  for (std::uint64_t t = end - n; t < end; ++t) {
    FlightEvent e;
    if (read_slot(t, e)) out.push_back(e);
  }
  return out;
}

std::string FlightRecorder::to_json(std::size_t max_events) const {
  const std::vector<FlightEvent> events = recent(max_events);
  std::string out = "{\"total\": " + std::to_string(total()) +
                    ", \"events\": [";
  for (std::size_t i = 0; i < events.size(); ++i) {
    const FlightEvent& e = events[i];
    out += i == 0 ? "\n" : ",\n";
    out += "  {\"ts_us\": " +
           json_number(static_cast<double>(e.ts_ns) * 1e-3) +
           ", \"type\": \"" + flight_event_name(e.type) + "\", \"id\": " +
           std::to_string(static_cast<std::int64_t>(e.request_id)) +
           ", \"generation\": " + std::to_string(e.generation) +
           ", \"detail\": " + std::to_string(e.detail) + "}";
  }
  out += events.empty() ? "]}\n" : "\n]}\n";
  return out;
}

void FlightRecorder::dump(int fd, std::size_t max_events) const {
  char buf[192];
  const std::uint64_t end = next_.load(std::memory_order_acquire);
  const std::uint64_t n =
      std::min({end, static_cast<std::uint64_t>(kCapacity),
                static_cast<std::uint64_t>(max_events)});
  int len = std::snprintf(buf, sizeof(buf),
                          "[INSTA] flight recorder: %llu event(s) total, "
                          "newest %llu:\n",
                          static_cast<unsigned long long>(end),
                          static_cast<unsigned long long>(n));
  write_fd(fd, buf, len);
  for (std::uint64_t t = end - n; t < end; ++t) {
    FlightEvent e;
    if (!read_slot(t, e)) continue;
    len = std::snprintf(
        buf, sizeof(buf),
        "  t=%12.3fus %-7s id=%-8lld gen=%llu detail=%u\n",
        static_cast<double>(e.ts_ns) * 1e-3, flight_event_name(e.type),
        static_cast<long long>(e.request_id),
        static_cast<unsigned long long>(e.generation), e.detail);
    write_fd(fd, buf, len);
  }
}

void FlightRecorder::clear() {
  // Test-isolation only: not linearizable against concurrent writers
  // (mirrors MetricsRegistry::reset()).
  for (Slot& s : slots_) s.seq.store(0, std::memory_order_relaxed);
  next_.store(0, std::memory_order_release);
}

void FlightRecorder::install_signal_dump() {
  static const bool installed = [] {
    struct sigaction sa = {};
    sa.sa_handler = flight_signal_handler;
    sigemptyset(&sa.sa_mask);
    sa.sa_flags = SA_RESETHAND;
    for (const int sig : {SIGSEGV, SIGBUS, SIGILL, SIGFPE, SIGABRT}) {
      ::sigaction(sig, &sa, nullptr);
    }
    return true;
  }();
  (void)installed;
}

}  // namespace insta::telemetry
