#pragma once

// The timing-query service layer: one Engine, many concurrent clients.
//
// Three traffic classes, three isolation mechanisms:
//
//  * Read queries (summary, endpoint slacks, worst endpoints) never touch
//    the engine. Every commit publishes an immutable TimingSnapshot through
//    an RCU-style pointer swap behind the annotated snap_mu_ capability
//    (util::Mutex; snap_ is INSTA_GUARDED_BY(snap_mu_), so the compiler —
//    not convention — proves the pointer is swapped and copied only inside
//    that tiny critical section, which never contends with the engine
//    lock). Readers copy the current shared_ptr and keep it alive for as
//    long as they like — a reader admitted before a commit keeps seeing
//    its own consistent pre-commit world.
//
//  * Speculative what-if queries from any number of sessions are coalesced
//    by a micro-batcher: the first arrival becomes the collection leader,
//    waits up to ServiceOptions::batch_window_us for co-travellers, and
//    drains the queue into a single ScenarioBatch::evaluate call over the
//    shared baseline (copy-on-write overlays; the engine is never
//    mutated). Collection of the next batch overlaps evaluation of the
//    previous one.
//
//  * Exclusive edit sessions buffer deltas in the service and apply them
//    under Engine::Transaction at commit(), serialized behind every
//    in-flight what-if batch by a shared_mutex. A successful commit
//    re-propagates incrementally and publishes the next snapshot.
//
// Admission control is structural, not advisory: a bounded what-if queue,
// a per-session in-flight cap, and a session-count cap shed excess load
// with structured Error replies (ErrorCode::kOverloaded) instead of
// stalling or growing without bound.

#include <atomic>
#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "analysis/diagnostics.hpp"
#include "core/engine.hpp"
#include "core/scenario_batch.hpp"
#include "replica/delta_log.hpp"
#include "replica/replication_info.hpp"
#include "replica/whatif_cache.hpp"
#include "timing/types.hpp"
#include "util/mutex.hpp"
#include "util/thread_annotations.hpp"

namespace insta::serve {

/// Client-visible session handle. Sessions are cheap; a socket connection
/// typically owns one.
using SessionId = std::int64_t;

/// Stable machine-readable error codes of the service (and, spelled via
/// error_code_name(), of the wire protocol).
enum class ErrorCode : std::uint8_t {
  kNone,          ///< success
  kBadRequest,    ///< malformed or semantically invalid request
  kBadSession,    ///< unknown, closed, or wrong-state session
  kOverloaded,    ///< shed by admission control; retry later
  kEditConflict,  ///< another session holds the edit lock
  kUnsupported,   ///< known op not available (e.g. hold on a setup-only engine)
  kUnknownCorner, ///< request named a corner the engine was not built with
  kInternal,      ///< engine-side failure; request-independent
};

/// Wire spelling of a code ("overloaded", "bad-request", ...).
[[nodiscard]] const char* error_code_name(ErrorCode code);

/// Process-wide request-id allocator: returns a fresh positive id per call.
/// The dispatcher stamps every wire request that did not supply its own id,
/// so each request is traceable through the flight recorder and the trace
/// flow events even when the client does not care about ids.
[[nodiscard]] std::uint64_t next_request_id();

/// One wire request's lifecycle. The Dispatcher owns it; each instant is
/// read from telemetry::Tracer::now_ns() once, and that instant's flight
/// event carries the same stamp. server_us, the latency observation, the
/// slow-request line and the reply event are derived from it. A stamp of 0
/// marks a stage the request never reached.
struct RequestRecord {
  std::uint64_t id = 0;
  std::uint64_t admit_ns = 0;       ///< dispatch began, before parsing
  std::uint64_t enqueue_ns = 0;     ///< queued for micro-batching
  std::uint64_t drain_ns = 0;       ///< drained by its batch leader
  std::uint64_t eval_begin_ns = 0;  ///< its batch's evaluation began
  std::uint64_t eval_end_ns = 0;    ///< its batch's evaluation ended
  std::uint64_t serialize_ns = 0;   ///< reply serialization began
  std::uint64_t reply_ns = 0;       ///< reply complete
  ErrorCode error = ErrorCode::kNone;
  std::uint64_t generation = 0;  ///< a what-if's evaluated version, else 0
};

/// Structured failure report of one service call. Success is code kNone;
/// everything else carries a message and, for validation failures, the
/// per-delta diagnostics (rule ids "delta-arc-range", ...).
struct Error {
  ErrorCode code = ErrorCode::kNone;
  std::string message;
  analysis::LintReport diagnostics;

  [[nodiscard]] bool ok() const { return code == ErrorCode::kNone; }

  static Error success() { return {}; }
  static Error make(ErrorCode code, std::string message) {
    Error e;
    e.code = code;
    e.message = std::move(message);
    return e;
  }
};

/// Throws util::CheckError naming every problem an options struct's
/// validate() reported ("<what> p1; p2;"): the constructors' shared gate.
void check_valid(const std::vector<std::string>& problems,
                 std::string_view what);

/// Service tuning knobs. Everything here is a trust boundary (CLI flags),
/// so validate() reports every bad field at once, mirroring
/// EngineOptions::validate().
struct ServiceOptions {
  /// How long a what-if collection leader waits for co-travellers before
  /// closing its batch, in microseconds. 0 disables coalescing (every
  /// request evaluates alone).
  int batch_window_us = 200;
  /// Scenario cap of one ScenarioBatch::evaluate call; a drained queue
  /// larger than this evaluates in successive chunks.
  int max_batch = 64;
  /// Bound on queued-but-not-yet-evaluated scenarios across all sessions.
  /// Arrivals beyond it are shed with ErrorCode::kOverloaded.
  int max_queue = 256;
  /// Bound on one session's concurrently outstanding what-if requests.
  int max_inflight_per_session = 8;
  /// Bound on concurrently open sessions.
  int max_sessions = 64;
  /// Also report per-endpoint scenario slacks in what-if replies.
  bool collect_endpoints = false;
  /// Replica mode: begin_edit is rejected with kUnsupported, so clients
  /// cannot mutate a copy that replication would immediately diverge from.
  /// The internal replication apply/import paths are unaffected.
  bool read_only = false;
  /// Capacity of the what-if result cache keyed by (generation, corner,
  /// canonical delta-set hash), consulted before micro-batching. 0 disables
  /// caching.
  int whatif_cache_entries = 256;
  /// Commit-delta history retained for replica catch-up; a replica lagging
  /// more than this many commits falls back to a full snapshot resync.
  int delta_log_capacity = 1024;

  /// One message per invalid field; empty when usable (the TimingService
  /// constructor rejects invalid options with the same messages).
  [[nodiscard]] std::vector<std::string> validate() const;
};

/// Immutable published view of the engine's committed timing. version is
/// Engine::generation() at publication; slack vectors are indexed by
/// endpoint id (hold_slack empty unless has_hold).
///
/// setup/hold/slack/hold_slack are the cross-corner MERGED view (identical
/// to corner 0 on a single-corner engine, so pre-MCMM readers are
/// unaffected); the *_by_corner twins carry every corner's data,
/// corner-major (corner c's endpoint e at [c * slack.size() + e]).
struct TimingSnapshot {
  std::uint64_t version = 0;
  bool has_hold = false;
  core::SlackSummary setup;
  core::SlackSummary hold;
  std::vector<float> slack;
  std::vector<float> hold_slack;
  /// Corner names, indexed by CornerId (size >= 1).
  std::vector<std::string> corners;
  std::vector<core::SlackSummary> setup_by_corner;
  /// Empty unless has_hold.
  std::vector<core::SlackSummary> hold_by_corner;
  /// Corner-major per-endpoint slacks, size corners.size() * slack.size().
  std::vector<float> slack_by_corner;
  /// Empty unless has_hold.
  std::vector<float> hold_slack_by_corner;
};

/// Deterministic service counters (the stats verb reports them).
struct ServiceStats {
  std::uint64_t sessions_opened = 0;
  std::uint64_t whatif_requests = 0;   ///< admitted requests
  std::uint64_t whatif_scenarios = 0;  ///< scenarios evaluated
  std::uint64_t batches = 0;           ///< ScenarioBatch::evaluate calls
  std::uint64_t max_batch_occupancy = 0;  ///< largest single batch
  std::uint64_t shed = 0;              ///< requests rejected by admission
  std::uint64_t commits = 0;
  std::uint64_t rollbacks = 0;
  std::uint64_t snapshots_published = 0;
};

/// The embeddable multi-client front end of one Engine. All public methods
/// are thread-safe; blocking calls (whatif, commit) block only their own
/// caller. The service assumes exclusive ownership of the engine for its
/// lifetime: mutating the engine behind the service's back invalidates the
/// published snapshot.
class TimingService {
 public:
  /// The engine must be timing-clean (construction publishes snapshot v0
  /// from its current state). Throws util::CheckError on invalid options.
  explicit TimingService(core::Engine& engine, ServiceOptions options = {});
  ~TimingService();
  TimingService(const TimingService&) = delete;
  TimingService& operator=(const TimingService&) = delete;

  // ---- sessions -------------------------------------------------------------

  Error open_session(SessionId& out);
  /// Fails with kBadSession while the session has in-flight what-ifs; an
  /// open edit is rolled back.
  Error close_session(SessionId session);

  // ---- reads (lock-free against the published snapshot) ---------------------

  /// The current snapshot. Never null; safe to hold indefinitely.
  [[nodiscard]] std::shared_ptr<const TimingSnapshot> snapshot() const {
    const util::LockGuard sl(snap_mu_);
    return snap_;
  }

  // ---- batched speculative what-ifs -----------------------------------------

  struct WhatifReply {
    /// The request's record, which the pipeline stamps (and gives an id
    /// when its id is 0); null when the caller needs neither.
    RequestRecord* record = nullptr;
    std::uint64_t version = 0;  ///< snapshot version the batch ran against
    std::vector<core::ScenarioResult> results;  ///< parallel to scenarios
  };

  /// Evaluates the session's scenarios against the shared baseline without
  /// mutating it, coalescing with concurrent sessions' requests. Blocks
  /// until the batch containing the request completes. Results are
  /// bit-identical to sequentially annotating the engine and re-propagating
  /// (ScenarioBatch's structural guarantee).
  ///
  /// `corner` is the request's resolved corner selector and participates
  /// only in the what-if cache key (evaluation always covers every corner;
  /// per-corner extraction is the protocol layer's job). kAllCorners (-1)
  /// is the merged/no-selector identity.
  Error whatif(SessionId session,
               const std::vector<std::vector<timing::ArcDelta>>& scenarios,
               WhatifReply& out, core::CornerId corner = core::kAllCorners);

  // ---- exclusive edits ------------------------------------------------------

  struct CommitReply {
    std::uint64_t version = 0;  ///< version of the newly published snapshot
    /// Cross-corner merged summaries (== corner 0 on single-corner engines).
    core::SlackSummary setup;
    core::SlackSummary hold;  ///< zeros unless the engine runs with hold
  };

  /// Claims the (single) edit slot. Deltas then buffer in the service via
  /// annotate() and hit the engine only inside commit(), under
  /// Engine::Transaction; preview a pending edit with whatif().
  Error begin_edit(SessionId session);
  /// Validates (Engine::check_deltas) and buffers deltas onto the
  /// session's open edit. Validation errors reject the call as a whole.
  Error annotate(SessionId session, std::span<const timing::ArcDelta> deltas);
  /// Applies the buffered deltas transactionally, re-propagates, publishes
  /// the next snapshot, and releases the edit slot.
  Error commit(SessionId session, CommitReply& out);
  /// Discards the buffered deltas and releases the edit slot.
  Error rollback(SessionId session);

  // ---- replication ----------------------------------------------------------

  /// Full mutable-state image of the engine at its committed generation,
  /// taken under shared engine access — the payload of the `sync` verb.
  [[nodiscard]] core::EngineState export_state();

  /// Replica bootstrap / gap recovery: overwrites the engine's timing state
  /// with a writer-exported image and republishes the snapshot. The delta
  /// log is re-seeded at the imported generation. kInternal on a
  /// design/options mismatch.
  Error import_state(const core::EngineState& state);

  /// Replica steady state: applies one writer commit record through the
  /// same Transaction + incremental-pass path the writer ran, so the
  /// replica's post-apply state is byte-identical to the writer's at
  /// rec.generation. Fails with kInternal — without touching the engine —
  /// when rec does not chain onto the current generation (the caller
  /// should full-resync). Permitted on read_only services: this is the
  /// replication channel, not a client edit.
  Error apply_commit(const replica::CommitRecord& rec);

  /// Commit-delta history backing the `delta_stream` verb. Internally
  /// locked; safe from any thread.
  [[nodiscard]] replica::DeltaLog& delta_log() { return delta_log_; }

  /// What-if cache counters (zeros when the cache is disabled).
  [[nodiscard]] replica::WhatifCacheStats cache_stats() const {
    return whatif_cache_.stats();
  }

  /// Wires a Replicator's live telemetry into the `stats` verb; pass the
  /// pointer before serving traffic starts and keep it alive for the
  /// service's lifetime. Null when this process is not a replica.
  void set_replication_info(const replica::ReplicationInfo* info) {
    repl_info_.store(info, std::memory_order_release);
  }
  [[nodiscard]] const replica::ReplicationInfo* replication_info() const {
    return repl_info_.load(std::memory_order_acquire);
  }

  // ---- introspection --------------------------------------------------------

  [[nodiscard]] ServiceStats stats() const;
  /// Scenarios queued but not yet drained by a batch leader (point-in-time,
  /// for live introspection; races benignly with the batcher).
  [[nodiscard]] std::size_t queue_depth() const;
  /// Currently open sessions.
  [[nodiscard]] std::size_t open_sessions() const;
  [[nodiscard]] const ServiceOptions& options() const { return options_; }
  /// Quiescent introspection API: callers (CLI reporting, tests) read the
  /// engine after the concurrent phase has drained, so taking engine_mu_
  /// here would only manufacture contention. The pointee is pt-guarded for
  /// every internal path; this accessor is the documented opt-out.
  [[nodiscard]] const core::Engine& engine() const
      INSTA_NO_THREAD_SAFETY_ANALYSIS {
    return *engine_;
  }

 private:
  /// One queued what-if request, owned by the caller's stack frame for the
  /// duration of whatif().
  struct PendingWhatif {
    const std::vector<std::vector<timing::ArcDelta>>* scenarios = nullptr;
    WhatifReply* reply = nullptr;
    Error error;
    /// The leader stamps drain and eval before it marks the request done
    /// under queue_mu_, so the waiter reads them ordered by `done`.
    RequestRecord* record = nullptr;
    /// Guarded by the service's queue_mu_ (a nested struct cannot name the
    /// outer class's member in an annotation): written by the leader under
    /// queue_mu_, read by the waiter's done_cv_ predicate under queue_mu_.
    bool done = false;
    bool leader = false;
  };

  struct Session {
    bool editing = false;
    int inflight = 0;
    std::vector<timing::ArcDelta> pending;  ///< buffered edit deltas
  };

  /// Rebuilds and atomically publishes the snapshot from the engine's
  /// current state. Caller holds exclusive engine access.
  void publish_snapshot() INSTA_REQUIRES(engine_mu_);
  /// Leader path: collect co-travellers, drain, evaluate, distribute.
  void run_batch_leader();
  /// Evaluates one drained request list (chunked to max_batch) and fills
  /// every request's reply. Serialized by eval_mu_.
  void evaluate_requests(std::vector<PendingWhatif*>& reqs);
  [[nodiscard]] Error validate_scenarios(
      const std::vector<std::vector<timing::ArcDelta>>& scenarios);

  /// Engine access: shared = what-if evaluation / delta validation (reads),
  /// exclusive = commit (mutates + republishes). Declared before engine_
  /// so the pt_guarded_by annotation can name it. core::Engine itself is
  /// externally synchronized — this capability IS its lock; batch_ keeps a
  /// const Engine* of its own, exercised only under a shared hold here.
  util::SharedMutex engine_mu_{"serve.engine", util::lockrank::kServeEngine};
  core::Engine* engine_ INSTA_PT_GUARDED_BY(engine_mu_);
  ServiceOptions options_;
  core::ScenarioBatch batch_;

  /// RCU-published snapshot. The annotated micro-mutex capability guards
  /// only the pointer swap and copy (std::atomic<shared_ptr> would do, but
  /// libstdc++'s lock-bit implementation trips ThreadSanitizer); snapshot
  /// contents are immutable once published.
  mutable util::Mutex snap_mu_{"serve.snap", util::lockrank::kServeSnap};
  std::shared_ptr<const TimingSnapshot> snap_ INSTA_GUARDED_BY(snap_mu_);

  /// Session table, edit slot, and deterministic stats.
  mutable util::Mutex state_mu_{"serve.state", util::lockrank::kServeState};
  std::unordered_map<SessionId, Session> sessions_ INSTA_GUARDED_BY(state_mu_);
  SessionId next_session_ INSTA_GUARDED_BY(state_mu_) = 1;
  SessionId editor_ INSTA_GUARDED_BY(state_mu_) = -1;
  ServiceStats stats_ INSTA_GUARDED_BY(state_mu_);

  /// Micro-batcher state. queue_cv_ wakes the collecting leader early when
  /// the queue fills; done_cv_ wakes waiters whose request completed.
  /// Mutable for the const queue_depth() introspection read.
  mutable util::Mutex queue_mu_{"serve.queue", util::lockrank::kServeQueue};
  util::CondVar queue_cv_;
  util::CondVar done_cv_;
  std::vector<PendingWhatif*> queue_ INSTA_GUARDED_BY(queue_mu_);
  std::size_t queued_scenarios_ INSTA_GUARDED_BY(queue_mu_) = 0;
  bool collecting_ INSTA_GUARDED_BY(queue_mu_) = false;

  /// Serializes ScenarioBatch::evaluate calls (collection of batch N+1
  /// overlaps evaluation of batch N, evaluation itself is sequential).
  util::Mutex eval_mu_{"serve.eval", util::lockrank::kServeEval};

  /// Replication state. delta_log_ is appended under exclusive engine_mu_
  /// (its own mutex ranks below, kReplicaLog); whatif_cache_ is internally
  /// locked and only ever touched with no serve lock held.
  replica::DeltaLog delta_log_;
  replica::WhatifCache whatif_cache_;
  std::atomic<const replica::ReplicationInfo*> repl_info_{nullptr};
};

}  // namespace insta::serve
