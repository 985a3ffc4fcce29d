#pragma once

// Replicator — keeps a local TimingService converged onto an upstream
// writer over the NDJSON wire protocol (protocol >= 3).
//
// State machine, per poll:
//
//   delta_stream from=<local generation>
//     in window  -> apply each commit delta through the same Transaction +
//                   incremental path the writer took (byte-identical state)
//     resync     -> sync (full snapshot) -> import_state  [full_syncs++]
//     chain break-> same full resync (a delta that stopped chaining means
//                   local state diverged; only a snapshot re-anchors it)
//
// A replica whose engine was rebuilt from the same design (generation 1,
// the writer's delta log base) catches up through deltas alone, so
// full_syncs stays 0 across restarts — the CI smoke asserts exactly that.
//
// Threading: bootstrap() runs on the caller's thread; start() launches one
// background poll thread which owns the upstream connection exclusively.
// Progress is published through the atomic ReplicationInfo (safe to hand to
// TimingService::set_replication_info for the stats verb).

#include <cstdint>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "replica/replication_info.hpp"
#include "serve/client.hpp"
#include "serve/service.hpp"
#include "util/lock_rank.hpp"
#include "util/mutex.hpp"
#include "util/thread_annotations.hpp"

namespace insta::replica {

struct ReplicatorOptions {
  std::string upstream;  ///< unix:/path or host:port of the writer
  int poll_ms = 50;      ///< delta poll cadence

  /// One message per invalid field; empty when usable. The upstream goes
  /// through serve::endpoint_problem, the parser Client dials with.
  [[nodiscard]] std::vector<std::string> validate() const;
};

class Replicator {
 public:
  /// The service must outlive the replicator and should be read_only (local
  /// edits would fork its generation chain off the writer's).
  Replicator(serve::TimingService& service, ReplicatorOptions options);
  ~Replicator();  ///< joins the poll thread
  Replicator(const Replicator&) = delete;
  Replicator& operator=(const Replicator&) = delete;

  /// One synchronous catch-up cycle (delta chain when possible, snapshot
  /// otherwise). Throws util::CheckError when the upstream is unreachable
  /// or speaks a bad protocol — callers retry (the writer may still be
  /// starting).
  void bootstrap();

  /// Launches the background poll loop. Call after bootstrap() succeeds.
  void start();

  /// Stops and joins the poll loop (idempotent; the destructor calls it).
  void stop();

  [[nodiscard]] const ReplicationInfo& info() const { return info_; }

 private:
  /// Runs one catch-up cycle over `client`; throws on connection loss.
  void catch_up(serve::Client& client);
  void run();  ///< poll-thread body

  serve::TimingService* service_;
  ReplicatorOptions options_;
  ReplicationInfo info_;
  /// Upstream connection, owned by whichever thread is replicating
  /// (bootstrap caller before start(), the poll thread after).
  std::unique_ptr<serve::Client> client_;

  util::Mutex stop_mu_{"replica.poll", util::lockrank::kReplicaCache};
  util::CondVar stop_cv_;
  std::atomic<bool> stop_requested_{false};
  std::thread thread_;
};

}  // namespace insta::replica
