#pragma once

// Always-on request-lifecycle flight recorder.
//
// A fixed-size lock-free ring of the last kCapacity request events
// (admit/enqueue/batch/eval/reply/shed with request id, generation and a
// per-type detail word). Writers take a monotonically increasing ticket
// with one fetch_add, claim the ticket's slot with one CAS on its sequence
// number, and fill it through relaxed atomics bracketed by that odd/even
// sequence number (a seqlock), so recording costs a handful of uncontended
// atomic operations — cheap enough to
// leave enabled in Release, which is the whole point: when the server
// aborts or a request goes sideways, the last few thousand lifecycle
// events are always there to dump.
//
// Readers (recent()/to_json()) walk the newest tickets and re-check each
// slot's sequence number after copying, discarding slots overwritten
// mid-read; dump() additionally avoids the heap so it can run from the
// lock_hierarchy abort handler and fatal-signal handlers.

#include <array>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace insta::telemetry {

/// Request lifecycle stages, in pipeline order.
enum class FlightEventType : std::uint8_t {
  kAdmit = 1,    ///< request parsed and assigned an id (detail: op tag)
  kEnqueue = 2,  ///< what-if queued for batching (detail: scenario count)
  kBatch = 3,    ///< member of a drained batch (detail: batch occupancy)
  kEval = 4,     ///< scenarios evaluated (detail: scenario count)
  kReply = 5,    ///< reply serialized (detail: 0 ok, else ErrorCode)
  kShed = 6,     ///< rejected by admission control (detail: ErrorCode)
};

/// Wire/JSON spelling of an event type ("admit", ..., "shed"; "unknown"
/// for out-of-range values from a torn read).
[[nodiscard]] const char* flight_event_name(FlightEventType type);

/// One recorded lifecycle event. ts_ns shares the tracer's monotonic epoch
/// so flight events correlate with Chrome-trace spans.
struct FlightEvent {
  std::uint64_t ts_ns = 0;
  std::uint64_t request_id = 0;
  std::uint64_t generation = 0;  ///< engine generation where known, else 0
  std::uint32_t detail = 0;
  FlightEventType type = FlightEventType::kAdmit;
};

class FlightRecorder {
 public:
  /// Events retained; older events are overwritten.
  static constexpr std::size_t kCapacity = std::size_t{1} << 12U;

  /// Process-wide recorder used by the serve layer and the dump hooks.
  static FlightRecorder& global();

  /// Records one event stamped `ts_ns`, a Tracer::now_ns() reading the
  /// caller took and keeps. Safe from any thread. Wait-free unless the
  /// slot's previous writer stalled mid-write for a full ring rotation (this
  /// call then waits for it); a writer that a newer ticket lapped drops its
  /// event rather than overwrite the newer one.
  void record(FlightEventType type, std::uint64_t ts_ns,
              std::uint64_t request_id, std::uint64_t generation = 0,
              std::uint32_t detail = 0);

  /// Events ever recorded (including overwritten ones).
  [[nodiscard]] std::uint64_t total() const {
    return next_.load(std::memory_order_acquire);
  }

  /// The newest `max_events` events in chronological order. Slots being
  /// overwritten concurrently are skipped, never torn.
  [[nodiscard]] std::vector<FlightEvent> recent(
      std::size_t max_events = kCapacity) const;

  /// {"total": N, "events": [{"ts_us", "type", "id", "generation",
  /// "detail"}, ...]} — newest max_events, chronological.
  [[nodiscard]] std::string to_json(std::size_t max_events = kCapacity) const;

  /// Writes a plain-text dump of the newest `max_events` events to `fd`
  /// without touching the heap, so it is safe from abort paths and fatal
  /// signal handlers (modulo the usual snprintf caveats).
  void dump(int fd, std::size_t max_events = 64) const;

  /// Discards all recorded events (test isolation).
  void clear();

  /// Installs fatal-signal handlers (SIGSEGV/SIGBUS/SIGILL/SIGFPE/SIGABRT)
  /// that dump the newest events to stderr and re-raise with the default
  /// disposition. Call once from long-running entry points (insta_cli
  /// serve); idempotent.
  static void install_signal_dump();

 private:
  /// One seqlock-protected slot. seq transitions 0 -> odd (2 * ticket + 1,
  /// claimed and writing) -> even (2 * ticket + 2, published) and only
  /// grows between clear() calls; every field is a relaxed atomic so
  /// concurrent read/overwrite is detected by seq, not undefined behavior.
  struct Slot {
    std::atomic<std::uint64_t> seq{0};
    std::atomic<std::uint64_t> ts_ns{0};
    std::atomic<std::uint64_t> request_id{0};
    std::atomic<std::uint64_t> generation{0};
    std::atomic<std::uint64_t> detail_type{0};  ///< detail << 8 | type
  };

  /// Reads slot `ticket % kCapacity` if it still (or already) holds that
  /// ticket's published record; false when unwritten or overwritten.
  [[nodiscard]] bool read_slot(std::uint64_t ticket, FlightEvent& out) const;

  std::atomic<std::uint64_t> next_{0};
  std::array<Slot, kCapacity> slots_{};
};

}  // namespace insta::telemetry
