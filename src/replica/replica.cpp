#include "replica/replica.hpp"

#include <chrono>
#include <utility>

#include "replica/codec.hpp"
#include "telemetry/json.hpp"
#include "util/check.hpp"

namespace insta::replica {

namespace {

using telemetry::JsonValue;
using util::check;

std::int64_t now_unix_us() {
  return std::chrono::duration_cast<std::chrono::microseconds>(
             std::chrono::system_clock::now().time_since_epoch())
      .count();
}

std::uint64_t require_u64(const JsonValue& obj, const char* key,
                          const char* op) {
  const JsonValue* v = obj.find(key);
  check(v != nullptr && v->is_number() && v->number >= 0,
        std::string("replicator: ") + op + ": missing \"" + key + "\"");
  return static_cast<std::uint64_t>(v->number);
}

}  // namespace

std::vector<std::string> ReplicatorOptions::validate() const {
  std::vector<std::string> problems;
  if (std::string p = serve::endpoint_problem(upstream); !p.empty()) {
    problems.push_back(std::move(p));
  }
  if (poll_ms < 1) problems.emplace_back("poll_ms must be >= 1");
  return problems;
}

Replicator::Replicator(serve::TimingService& service,
                       ReplicatorOptions options)
    : service_(&service), options_(std::move(options)) {
  serve::check_valid(options_.validate(),
                     "Replicator: invalid ReplicatorOptions:");
}

Replicator::~Replicator() { stop(); }

void Replicator::catch_up(serve::Client& client) {
  const std::uint64_t local = service_->snapshot()->version;
  const JsonValue ds_reply = serve::parse_reply(client.request(
      "{\"op\": \"delta_stream\", \"from\": " + std::to_string(local) + "}"));
  const JsonValue& ds =
      serve::require_result(ds_reply, "replicator: delta_stream");
  info_.upstream_generation.store(
      require_u64(ds, "generation", "delta_stream"));

  const JsonValue* resync_v = ds.find("resync");
  bool resync = resync_v == nullptr ||
                resync_v->type != JsonValue::Type::kBool || resync_v->boolean;
  if (!resync) {
    const JsonValue* deltas = ds.find("deltas");
    check(deltas != nullptr && deltas->is_array(),
          "replicator: delta_stream reply has no deltas array");
    for (const JsonValue& b64 : deltas->array) {
      check(b64.is_string(), "replicator: delta entry is not a string");
      std::string frame;
      check(base64_decode(b64.string, frame),
            "replicator: delta entry is not valid base64");
      CommitRecord rec;
      const std::string err = decode_delta(frame, rec);
      check(err.empty(), "replicator: bad delta frame: " + err);
      if (!service_->apply_commit(rec).ok()) {
        // The chain stopped extending local state (divergence); only a
        // fresh snapshot re-anchors it.
        resync = true;
        break;
      }
      info_.applied_deltas.fetch_add(1);
      info_.last_lag_us.store(now_unix_us() - rec.commit_unix_us);
    }
  }

  if (resync) {
    const JsonValue sync_reply =
        serve::parse_reply(client.request("{\"op\": \"sync\"}"));
    const JsonValue& sy =
        serve::require_result(sync_reply, "replicator: sync");
    const JsonValue* snap_b64 = sy.find("snapshot");
    check(snap_b64 != nullptr && snap_b64->is_string(),
          "replicator: sync reply has no snapshot");
    std::string frame;
    check(base64_decode(snap_b64->string, frame),
          "replicator: snapshot is not valid base64");
    core::EngineState st;
    const std::string err = decode_snapshot(frame, st);
    check(err.empty(), "replicator: bad snapshot frame: " + err);
    const serve::Error ierr = service_->import_state(st);
    check(ierr.ok(), "replicator: import_state: " + ierr.message);
    info_.full_syncs.fetch_add(1);
    info_.upstream_generation.store(st.generation);
  }
}

void Replicator::bootstrap() {
  try {
    if (client_ == nullptr) {
      client_ = std::make_unique<serve::Client>(options_.upstream);
    }
    catch_up(*client_);
  } catch (...) {
    client_.reset();
    info_.connected.store(false);
    throw;
  }
  info_.connected.store(true);
}

void Replicator::start() {
  check(!thread_.joinable(), "replicator: already started");
  stop_requested_.store(false);
  thread_ = std::thread([this] { run(); });
}

void Replicator::stop() {
  if (!thread_.joinable()) return;
  stop_requested_.store(true);
  {
    // Pairs with the wait_for in run(): taking the mutex between the store
    // and the notify closes the missed-wakeup window.
    const util::LockGuard lk(stop_mu_);
  }
  stop_cv_.notify_all();
  thread_.join();
}

void Replicator::run() {
  while (!stop_requested_.load()) {
    try {
      bootstrap();
    } catch (const std::exception&) {
      // Connection loss or a protocol hiccup: bootstrap() dropped the
      // connection; retry on the next tick (the upstream may be restarting).
    }
    util::UniqueLock lk(stop_mu_);
    stop_cv_.wait_for(lk, std::chrono::milliseconds(options_.poll_ms),
                      [this] { return stop_requested_.load(); });
  }
}

}  // namespace insta::replica
