#include "serve/service.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <limits>
#include <utility>

#include "telemetry/flight_recorder.hpp"
#include "telemetry/telemetry.hpp"
#include "util/check.hpp"

namespace insta::serve {

using telemetry::FlightEventType;
using timing::ArcDelta;
using util::check;

std::uint64_t next_request_id() {
  static std::atomic<std::uint64_t> next{1};
  return next.fetch_add(1, std::memory_order_relaxed);
}

const char* error_code_name(ErrorCode code) {
  switch (code) {
    case ErrorCode::kNone: return "ok";
    case ErrorCode::kBadRequest: return "bad-request";
    case ErrorCode::kBadSession: return "bad-session";
    case ErrorCode::kOverloaded: return "overloaded";
    case ErrorCode::kEditConflict: return "edit-conflict";
    case ErrorCode::kUnsupported: return "unsupported";
    case ErrorCode::kUnknownCorner: return "unknown-corner";
    case ErrorCode::kInternal: return "internal";
  }
  return "unknown";
}

void check_valid(const std::vector<std::string>& problems,
                 std::string_view what) {
  if (problems.empty()) return;
  std::string msg(what);
  for (const std::string& p : problems) msg += " " + p + ";";
  check(false, msg);
}

std::vector<std::string> ServiceOptions::validate() const {
  std::vector<std::string> problems;
  if (batch_window_us < 0 || batch_window_us > 10'000'000) {
    problems.emplace_back("batch_window_us must be in [0, 10000000]");
  }
  if (max_batch < 1) problems.emplace_back("max_batch must be >= 1");
  if (max_queue < 1) problems.emplace_back("max_queue must be >= 1");
  if (max_queue < max_batch) {
    problems.emplace_back("max_queue must be >= max_batch");
  }
  if (max_inflight_per_session < 1) {
    problems.emplace_back("max_inflight_per_session must be >= 1");
  }
  if (max_sessions < 1) problems.emplace_back("max_sessions must be >= 1");
  if (whatif_cache_entries < 0) {
    problems.emplace_back("whatif_cache_entries must be >= 0");
  }
  if (delta_log_capacity < 1) {
    problems.emplace_back("delta_log_capacity must be >= 1");
  }
  return problems;
}

TimingService::TimingService(core::Engine& engine, ServiceOptions options)
    : engine_(&engine),
      options_(options),
      batch_(engine, core::ScenarioBatchOptions{
                         .collect_endpoints = options.collect_endpoints}),
      delta_log_(options.delta_log_capacity < 1
                     ? 1
                     : static_cast<std::size_t>(options.delta_log_capacity)),
      whatif_cache_(options.whatif_cache_entries < 0
                        ? 0
                        : static_cast<std::size_t>(
                              options.whatif_cache_entries)) {
  check_valid(options_.validate(), "TimingService: invalid ServiceOptions:");
  check(engine.timing_clean(),
        "TimingService: engine has pending annotations (run run_forward() "
        "before constructing the service)");
  // The delta chain starts at the engine's current committed generation:
  // a replica at this generation needs zero deltas, not a resync.
  delta_log_.seed(engine.generation());
  // No client can exist yet, but publish_snapshot() requires exclusive
  // engine access by contract, so take it (uncontended) rather than carve
  // out a constructor exemption.
  const util::WriteLock el(engine_mu_);
  publish_snapshot();
}

TimingService::~TimingService() = default;

void TimingService::publish_snapshot() {
  auto snap = std::make_shared<TimingSnapshot>();
  snap->version = engine_->generation();
  snap->has_hold = engine_->options().enable_hold;
  const std::size_t num_corners = engine_->num_corners();
  const std::size_t n = engine_->graph().endpoints().size();
  snap->corners.reserve(num_corners);
  for (const core::CornerSpec& cs : engine_->corners()) {
    snap->corners.push_back(cs.name);
  }
  snap->setup = engine_->merged_summary(core::Mode::kSetup);
  snap->setup_by_corner.reserve(num_corners);
  snap->slack_by_corner.reserve(num_corners * n);
  for (std::size_t c = 0; c < num_corners; ++c) {
    const auto corner = static_cast<core::CornerId>(c);
    snap->setup_by_corner.push_back(
        engine_->summary(core::Mode::kSetup, corner));
    const std::span<const float> s = engine_->endpoint_slacks(corner);
    snap->slack_by_corner.insert(snap->slack_by_corner.end(), s.begin(),
                                 s.end());
  }
  if (num_corners == 1) {
    snap->slack.assign(engine_->endpoint_slacks().begin(),
                       engine_->endpoint_slacks().end());
  } else {
    // Merged per-endpoint slack: worst finite value over the corners (the
    // per-endpoint analogue of Engine::merged_summary).
    snap->slack.assign(n, std::numeric_limits<float>::infinity());
    for (std::size_t c = 0; c < num_corners; ++c) {
      for (std::size_t e = 0; e < n; ++e) {
        const float s = snap->slack_by_corner[c * n + e];
        if (s < snap->slack[e]) snap->slack[e] = s;
      }
    }
  }
  if (snap->has_hold) {
    snap->hold = engine_->merged_summary(core::Mode::kHold);
    snap->hold_by_corner.reserve(num_corners);
    snap->hold_slack_by_corner.reserve(num_corners * n);
    for (std::size_t c = 0; c < num_corners; ++c) {
      const auto corner = static_cast<core::CornerId>(c);
      snap->hold_by_corner.push_back(
          engine_->summary(core::Mode::kHold, corner));
      for (std::size_t e = 0; e < n; ++e) {
        snap->hold_slack_by_corner.push_back(engine_->endpoint_hold_slack(
            static_cast<timing::EndpointId>(e), corner));
      }
    }
    snap->hold_slack.assign(n, std::numeric_limits<float>::infinity());
    for (std::size_t c = 0; c < num_corners; ++c) {
      for (std::size_t e = 0; e < n; ++e) {
        const float s = snap->hold_slack_by_corner[c * n + e];
        if (s < snap->hold_slack[e]) snap->hold_slack[e] = s;
      }
    }
  }
  {
    const util::LockGuard sl(snap_mu_);
    snap_ = std::move(snap);
  }
  const util::LockGuard sl(state_mu_);
  ++stats_.snapshots_published;
}

// ---- sessions ---------------------------------------------------------------

Error TimingService::open_session(SessionId& out) {
  const util::LockGuard sl(state_mu_);
  if (static_cast<int>(sessions_.size()) >= options_.max_sessions) {
    ++stats_.shed;
    return Error::make(ErrorCode::kOverloaded,
                       "session limit reached (" +
                           std::to_string(options_.max_sessions) + ")");
  }
  out = next_session_++;
  sessions_.emplace(out, Session{});
  ++stats_.sessions_opened;
  return Error::success();
}

Error TimingService::close_session(SessionId session) {
  const util::LockGuard sl(state_mu_);
  const auto it = sessions_.find(session);
  if (it == sessions_.end()) {
    return Error::make(ErrorCode::kBadSession,
                       "unknown session " + std::to_string(session));
  }
  if (it->second.inflight > 0) {
    return Error::make(ErrorCode::kBadSession,
                       "session " + std::to_string(session) +
                           " has in-flight requests");
  }
  if (it->second.editing) {
    editor_ = -1;
    ++stats_.rollbacks;
  }
  sessions_.erase(it);
  return Error::success();
}

// ---- what-if batching -------------------------------------------------------

Error TimingService::validate_scenarios(
    const std::vector<std::vector<ArcDelta>>& scenarios) {
  const util::SharedLock el(engine_mu_);
  Error err;
  for (std::size_t s = 0; s < scenarios.size(); ++s) {
    const analysis::LintReport report = engine_->check_deltas(scenarios[s]);
    if (report.has_errors()) {
      err.code = ErrorCode::kBadRequest;
      err.message = "scenario " + std::to_string(s) + " has invalid deltas";
    }
    // Warnings (duplicate arcs) are carried along but do not reject: the
    // evaluator applies them last-wins, same as a sequential annotate.
    if (!report.empty()) err.diagnostics.merge(report);
  }
  return err;
}

Error TimingService::whatif(
    SessionId session, const std::vector<std::vector<ArcDelta>>& scenarios,
    WhatifReply& out, core::CornerId corner) {
  auto& fr = telemetry::FlightRecorder::global();
  RequestRecord own;
  RequestRecord& rec = out.record != nullptr ? *out.record : own;
  if (rec.id == 0) rec.id = next_request_id();
  const auto detail = static_cast<std::uint32_t>(scenarios.size());
  INSTA_TRACE_SCOPE("serve.whatif",
                    static_cast<std::int64_t>(scenarios.size()));
  if (scenarios.empty()) {
    return Error::make(ErrorCode::kBadRequest, "whatif: empty scenario list");
  }
  {
    const util::LockGuard sl(state_mu_);
    const auto it = sessions_.find(session);
    if (it == sessions_.end()) {
      return Error::make(ErrorCode::kBadSession,
                         "unknown session " + std::to_string(session));
    }
    if (it->second.inflight >= options_.max_inflight_per_session) {
      ++stats_.shed;
      fr.record(FlightEventType::kShed, telemetry::Tracer::now_ns(), rec.id,
                0, detail);
      return Error::make(
          ErrorCode::kOverloaded,
          "session " + std::to_string(session) + " already has " +
              std::to_string(it->second.inflight) + " requests in flight");
    }
    ++it->second.inflight;
  }
  // The session's inflight slot is held from here on; every exit path must
  // release it.
  const auto release = [this, session] {
    const util::LockGuard sl(state_mu_);
    --sessions_.find(session)->second.inflight;
  };

  if (Error err = validate_scenarios(scenarios); !err.ok()) {
    release();
    return err;
  }

  // Cache consult, before the micro-batcher: optimization loops re-ask
  // near-identical questions against the same committed generation, and an
  // all-hit request is answered from the published snapshot's version
  // without touching the engine, the queue, or the evaluator. A partial
  // hit evaluates the whole request (results must share one baseline
  // version) and refreshes every entry afterwards.
  std::vector<replica::WhatifCache::CanonicalScenario> canon;
  if (whatif_cache_.enabled()) {
    const std::uint64_t cache_version = snapshot()->version;
    canon.reserve(scenarios.size());
    std::vector<core::ScenarioResult> cached(scenarios.size());
    bool all_hit = true;
    for (std::size_t i = 0; i < scenarios.size(); ++i) {
      canon.push_back(replica::WhatifCache::canonicalize(scenarios[i]));
      if (!whatif_cache_.lookup(cache_version, corner, canon[i], cached[i])) {
        all_hit = false;
      }
    }
    if (all_hit) {
      out.version = cache_version;
      out.results = std::move(cached);
      {
        const util::LockGuard sl(state_mu_);
        ++stats_.whatif_requests;
      }
      release();
      return Error::success();
    }
  }

  PendingWhatif req;
  req.record = &rec;
  req.scenarios = &scenarios;
  req.reply = &out;
  {
    util::UniqueLock ql(queue_mu_);
    if (queued_scenarios_ + scenarios.size() >
        static_cast<std::size_t>(options_.max_queue)) {
      ql.unlock();
      release();
      fr.record(FlightEventType::kShed, telemetry::Tracer::now_ns(), rec.id,
                0, detail);
      const util::LockGuard sl(state_mu_);
      ++stats_.shed;
      return Error::make(ErrorCode::kOverloaded,
                         "what-if queue full (" +
                             std::to_string(options_.max_queue) +
                             " scenarios)");
    }
    // Recorded before the queue push so the leader's kBatch event for this
    // request can never precede its kEnqueue in ticket order; the 's' flow
    // point parent-links the batch spans back to this request thread.
    rec.enqueue_ns = telemetry::Tracer::now_ns();
    fr.record(FlightEventType::kEnqueue, rec.enqueue_ns, rec.id, 0, detail);
    telemetry::Tracer::global().flow(rec.id, 's');
    queue_.push_back(&req);
    queued_scenarios_ += scenarios.size();
    if (!collecting_) {
      collecting_ = true;
      req.leader = true;
    } else if (queued_scenarios_ >=
               static_cast<std::size_t>(options_.max_batch)) {
      queue_cv_.notify_all();  // batch is full: wake the leader early
    }
  }
  {
    const util::LockGuard sl(state_mu_);
    ++stats_.whatif_requests;
  }

  if (req.leader) {
    run_batch_leader();
  } else {
    util::UniqueLock ql(queue_mu_);
    done_cv_.wait(ql, [&req] { return req.done; });
  }
  telemetry::Tracer::global().flow(rec.id, 'f');
  if (req.error.ok() && !canon.empty()) {
    // Populate the cache at the version the batch actually evaluated
    // against (a commit may have landed between the probe and the drain).
    for (std::size_t i = 0; i < scenarios.size(); ++i) {
      whatif_cache_.insert(out.version, corner, std::move(canon[i]),
                           out.results[i]);
    }
  }
  release();
  return req.error;
}

void TimingService::run_batch_leader() {
  std::vector<PendingWhatif*> reqs;
  {
    util::UniqueLock ql(queue_mu_);
    if (options_.batch_window_us > 0) {
      const auto deadline =
          std::chrono::steady_clock::now() +
          std::chrono::microseconds(options_.batch_window_us);
      // Manual wait loop: the condition reads queued_scenarios_, which is
      // guarded state, and Clang's analysis cannot see through a predicate
      // lambda (it would flag the access as unlocked).
      while (queued_scenarios_ < static_cast<std::size_t>(options_.max_batch)) {
        if (queue_cv_.wait_until(ql, deadline) == std::cv_status::timeout) {
          break;
        }
      }
    }
    reqs.swap(queue_);
    queued_scenarios_ = 0;
    // Collection of the next batch may begin while this one evaluates.
    collecting_ = false;
  }

  // The leader span encloses the whole batch; one 't' flow point per member
  // links every co-travelling request into it, which is what makes the
  // coalescing visible in the Chrome trace (N arrows into one slice).
  INSTA_TRACE_SCOPE("serve.batch", static_cast<std::int64_t>(reqs.size()));
  const std::uint64_t drained = telemetry::Tracer::now_ns();
  auto& tracer = telemetry::Tracer::global();
  auto& fr = telemetry::FlightRecorder::global();
  const auto occupancy = static_cast<std::uint32_t>(reqs.size());
  for (PendingWhatif* r : reqs) {
    r->record->drain_ns = drained;
    tracer.flow(r->record->id, 't');
    fr.record(FlightEventType::kBatch, drained, r->record->id, 0, occupancy);
  }

  evaluate_requests(reqs);

  {
    const util::LockGuard ql(queue_mu_);
    for (PendingWhatif* r : reqs) r->done = true;
  }
  done_cv_.notify_all();
}

void TimingService::evaluate_requests(std::vector<PendingWhatif*>& reqs) {
  // Flatten the drained requests into (request, scenario) order, then
  // evaluate in max_batch-sized chunks under one shared engine lock so the
  // whole drain sees a single baseline version.
  struct Item {
    PendingWhatif* req;
    std::size_t index;  ///< scenario index within the request
  };
  std::vector<Item> items;
  for (PendingWhatif* r : reqs) {
    r->reply->results.clear();
    r->reply->results.resize(r->scenarios->size());
    for (std::size_t i = 0; i < r->scenarios->size(); ++i) {
      items.push_back({r, i});
    }
  }

  const util::LockGuard evl(eval_mu_);
  const util::SharedLock el(engine_mu_);
  const std::uint64_t version = engine_->generation();
  const std::uint64_t eval_begin = telemetry::Tracer::now_ns();
  for (PendingWhatif* r : reqs) r->record->eval_begin_ns = eval_begin;
  const auto chunk_cap = static_cast<std::size_t>(options_.max_batch);
  std::uint64_t num_batches = 0;
  std::uint64_t max_occupancy = 0;
  for (std::size_t lo = 0; lo < items.size(); lo += chunk_cap) {
    const std::size_t hi = std::min(items.size(), lo + chunk_cap);
    INSTA_TRACE_SCOPE("serve.eval_chunk", static_cast<std::int64_t>(hi - lo));
    std::vector<std::span<const ArcDelta>> spans;
    std::vector<std::uint64_t> flow_ids;
    spans.reserve(hi - lo);
    flow_ids.reserve(hi - lo);
    for (std::size_t i = lo; i < hi; ++i) {
      spans.push_back((*items[i].req->scenarios)[items[i].index]);
      flow_ids.push_back(items[i].req->record->id);
    }
    try {
      std::vector<core::ScenarioResult> results =
          batch_.evaluate(spans, flow_ids);
      for (std::size_t i = lo; i < hi; ++i) {
        items[i].req->reply->results[items[i].index] =
            std::move(results[i - lo]);
      }
    } catch (const util::CheckError& e) {
      // Scenarios were pre-validated, so this is an engine-side failure;
      // fail every request in the chunk with the same diagnosis.
      for (std::size_t i = lo; i < hi; ++i) {
        items[i].req->error = Error::make(
            ErrorCode::kInternal,
            std::string("scenario batch evaluation failed: ") + e.what());
      }
    }
    ++num_batches;
    max_occupancy =
        std::max(max_occupancy, static_cast<std::uint64_t>(hi - lo));
  }
  const std::uint64_t eval_end = telemetry::Tracer::now_ns();
  auto& fr = telemetry::FlightRecorder::global();
  for (PendingWhatif* r : reqs) {
    r->record->eval_end_ns = eval_end;
    r->reply->version = version;
    fr.record(FlightEventType::kEval, eval_end, r->record->id, version,
              static_cast<std::uint32_t>(r->scenarios->size()));
  }

  const util::LockGuard sl(state_mu_);
  stats_.batches += num_batches;
  stats_.whatif_scenarios += items.size();
  stats_.max_batch_occupancy =
      std::max(stats_.max_batch_occupancy, max_occupancy);
}

// ---- exclusive edits --------------------------------------------------------

Error TimingService::begin_edit(SessionId session) {
  if (options_.read_only) {
    return Error::make(ErrorCode::kUnsupported,
                       "server is a read-only replica (edits go to the "
                       "writer; replication applies them here)");
  }
  const util::LockGuard sl(state_mu_);
  const auto it = sessions_.find(session);
  if (it == sessions_.end()) {
    return Error::make(ErrorCode::kBadSession,
                       "unknown session " + std::to_string(session));
  }
  if (it->second.editing) {
    return Error::make(ErrorCode::kBadSession,
                       "session " + std::to_string(session) +
                           " already has an open edit");
  }
  if (editor_ != -1) {
    return Error::make(ErrorCode::kEditConflict,
                       "session " + std::to_string(editor_) +
                           " holds the edit slot");
  }
  editor_ = session;
  it->second.editing = true;
  it->second.pending.clear();
  return Error::success();
}

Error TimingService::annotate(SessionId session,
                              std::span<const ArcDelta> deltas) {
  {
    const util::LockGuard sl(state_mu_);
    const auto it = sessions_.find(session);
    if (it == sessions_.end()) {
      return Error::make(ErrorCode::kBadSession,
                         "unknown session " + std::to_string(session));
    }
    if (!it->second.editing) {
      return Error::make(ErrorCode::kBadSession,
                         "session " + std::to_string(session) +
                             " has no open edit (begin_edit first)");
    }
  }
  {
    const util::SharedLock el(engine_mu_);
    const analysis::LintReport report = engine_->check_deltas(deltas);
    if (report.has_errors()) {
      Error err = Error::make(ErrorCode::kBadRequest,
                              "annotate: invalid deltas rejected");
      err.diagnostics = report;
      return err;
    }
  }
  const util::LockGuard sl(state_mu_);
  const auto it = sessions_.find(session);
  if (it == sessions_.end() || !it->second.editing) {
    return Error::make(ErrorCode::kBadSession,
                       "edit closed while validating deltas");
  }
  it->second.pending.insert(it->second.pending.end(), deltas.begin(),
                            deltas.end());
  return Error::success();
}

Error TimingService::commit(SessionId session, CommitReply& out) {
  std::vector<ArcDelta> pending;
  {
    const util::LockGuard sl(state_mu_);
    const auto it = sessions_.find(session);
    if (it == sessions_.end()) {
      return Error::make(ErrorCode::kBadSession,
                         "unknown session " + std::to_string(session));
    }
    if (!it->second.editing) {
      return Error::make(ErrorCode::kBadSession,
                         "session " + std::to_string(session) +
                             " has no open edit to commit");
    }
    // Commit point: the edit slot is released here; a failure below still
    // leaves the engine rolled back and the edit closed.
    pending = std::move(it->second.pending);
    it->second.pending.clear();
    it->second.editing = false;
    editor_ = -1;
  }

  {
    const util::WriteLock el(engine_mu_);
    if (!pending.empty()) {
      const std::uint64_t parent_gen = engine_->generation();
      try {
        core::Engine::Transaction tx = engine_->begin_edit();
        tx.annotate(pending);
        engine_->run_forward_incremental();
        tx.commit();
        // Capture the commit for delta replication: the exact annotate
        // calls, in order (TNS folds are float-order-sensitive, so a
        // replica must replay them verbatim to stay byte-identical).
        replica::CommitRecord rec;
        rec.parent_generation = parent_gen;
        rec.generation = engine_->generation();
        rec.commit_unix_us =
            std::chrono::duration_cast<std::chrono::microseconds>(
                std::chrono::system_clock::now().time_since_epoch())
                .count();
        rec.sets = tx.applied();
        delta_log_.append(std::move(rec));
      } catch (const util::CheckError& e) {
        // ~Transaction rolled the engine back to its pre-edit bytes.
        return Error::make(ErrorCode::kInternal,
                           std::string("commit failed: ") + e.what());
      }
      publish_snapshot();
    }
    out.version = engine_->generation();
    out.setup = engine_->merged_summary(core::Mode::kSetup);
    if (engine_->options().enable_hold) {
      out.hold = engine_->merged_summary(core::Mode::kHold);
    }
  }
  const util::LockGuard sl(state_mu_);
  ++stats_.commits;
  return Error::success();
}

Error TimingService::rollback(SessionId session) {
  const util::LockGuard sl(state_mu_);
  const auto it = sessions_.find(session);
  if (it == sessions_.end()) {
    return Error::make(ErrorCode::kBadSession,
                       "unknown session " + std::to_string(session));
  }
  if (!it->second.editing) {
    return Error::make(ErrorCode::kBadSession,
                       "session " + std::to_string(session) +
                           " has no open edit to roll back");
  }
  it->second.pending.clear();
  it->second.editing = false;
  editor_ = -1;
  ++stats_.rollbacks;
  return Error::success();
}

// ---- replication ------------------------------------------------------------

core::EngineState TimingService::export_state() {
  // Shared: exporting only reads committed planes; concurrent what-if
  // evaluation (also shared) never mutates them.
  const util::SharedLock el(engine_mu_);
  return engine_->export_state();
}

Error TimingService::import_state(const core::EngineState& state) {
  {
    const util::WriteLock el(engine_mu_);
    try {
      engine_->import_state(state);
    } catch (const util::CheckError& e) {
      return Error::make(ErrorCode::kInternal,
                         std::string("import_state failed: ") + e.what());
    }
    publish_snapshot();
  }
  // The imported generation is the new chain base: anyone replicating from
  // this service resumes from here.
  delta_log_.seed(state.generation);
  return Error::success();
}

Error TimingService::apply_commit(const replica::CommitRecord& rec) {
  {
    const util::WriteLock el(engine_mu_);
    if (engine_->generation() != rec.parent_generation) {
      return Error::make(
          ErrorCode::kInternal,
          "delta for generation " + std::to_string(rec.generation) +
              " does not chain onto local generation " +
              std::to_string(engine_->generation()) + " (resync required)");
    }
    try {
      // The same Transaction + incremental path the writer took, with the
      // writer's annotate calls replayed in order, so the replica's planes
      // and order-sensitive aggregate folds land on identical bytes.
      core::Engine::Transaction tx = engine_->begin_edit();
      for (const core::AppliedDeltas& set : rec.sets) {
        tx.annotate(set.deltas, set.corner);
      }
      engine_->run_forward_incremental();
      tx.commit();
    } catch (const util::CheckError& e) {
      return Error::make(ErrorCode::kInternal,
                         std::string("apply_commit failed: ") + e.what());
    }
    if (engine_->generation() != rec.generation) {
      return Error::make(
          ErrorCode::kInternal,
          "apply_commit: generation diverged (expected " +
              std::to_string(rec.generation) + ", got " +
              std::to_string(engine_->generation()) +
              "); writer and replica disagree on commit semantics");
    }
    delta_log_.append(rec);  // chain continues: replicas can fan out
    publish_snapshot();
  }
  const util::LockGuard sl(state_mu_);
  ++stats_.commits;
  return Error::success();
}

ServiceStats TimingService::stats() const {
  const util::LockGuard sl(state_mu_);
  return stats_;
}

std::size_t TimingService::queue_depth() const {
  const util::LockGuard ql(queue_mu_);
  return queued_scenarios_;
}

std::size_t TimingService::open_sessions() const {
  const util::LockGuard sl(state_mu_);
  return sessions_.size();
}

}  // namespace insta::serve
