#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <exception>
#include <memory>
#include <thread>
#include <type_traits>
#include <vector>

#include "util/mutex.hpp"
#include "util/thread_annotations.hpp"

namespace insta::util {

/// Fixed-size worker-thread pool with a blocking parallel_for.
///
/// This is the CPU stand-in for the paper's CUDA grid: `parallel_for` over
/// the pins of one timing level plays the role of one kernel launch, with
/// each index corresponding to one CUDA thread. Work items within a level are
/// independent by construction (level-synchronous propagation), so results
/// are deterministic regardless of the number of workers.
///
/// Dispatch is zero-allocation ticket-pulling: a launch publishes one raw
/// function pointer + context into a shared slot, workers pull contiguous
/// chunk indices off a single atomic ticket counter, and the caller both
/// participates in the work and spin-waits for the last chunk. No
/// std::function heap traffic, no queue, and no mutex on the hot path; the
/// sleep mutex/condvar is touched only when workers have been idle long
/// enough to block. Per-level launch cost is what used to dominate the many
/// small levels of a levelized timing graph.
class ThreadPool {
 public:
  /// Point-in-time utilization numbers, cumulative since construction.
  struct PoolStats {
    std::size_t workers = 0;
    std::uint64_t tasks_queued = 0;
    std::uint64_t tasks_executed = 0;
    double busy_sec = 0.0;  ///< summed across workers
    double idle_sec = 0.0;  ///< summed across workers (time blocked in wait)
    /// Idle share of the most idle worker, in percent of its busy+idle time.
    double max_worker_idle_pct = 0.0;
  };

  /// Type-erased chunk callback of the ticket-dispatch path.
  using ChunkFn = void (*)(void* ctx, std::size_t lo, std::size_t hi);

  /// Creates `num_threads` workers (0 means hardware_concurrency, min 1).
  explicit ThreadPool(std::size_t num_threads = 0);

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Joins all workers. The pool must be quiescent (no launch in flight).
  ~ThreadPool();

  /// Number of worker threads.
  [[nodiscard]] std::size_t size() const { return workers_.size(); }

  /// Runs `fn(i)` for every i in [begin, end), distributing contiguous
  /// chunks across workers, and blocks until all iterations finish.
  /// `grain` is only the minimum chunk size (prevents over-splitting tiny
  /// loops; loops smaller than `grain` run inline on the calling thread): a
  /// launch splits into at most 4 × (size() + 1) chunks, so beyond that
  /// consecutive indices merge into one chunk and run on one thread.
  /// If any iteration throws, the first exception is captured and rethrown
  /// on the calling thread after all chunks have drained; the pool stays
  /// usable afterwards. Routed through the same ticket-dispatch path as
  /// parallel_for_chunks (no per-index std::function, no queue).
  template <typename F>
  void parallel_for(std::size_t begin, std::size_t end, F&& fn,
                    std::size_t grain = 256) {
    using Fn = std::remove_reference_t<F>;
    run_chunked(
        begin, end,
        [](void* ctx, std::size_t lo, std::size_t hi) {
          Fn& f = *static_cast<Fn*>(ctx);
          for (std::size_t i = lo; i < hi; ++i) f(i);
        },
        const_cast<void*>(static_cast<const void*>(std::addressof(fn))),
        grain);
  }

  /// Like parallel_for but hands each worker a [chunk_begin, chunk_end)
  /// range, which avoids per-index call overhead in hot kernels. Same chunk
  /// cap and exception contract as parallel_for: with more than
  /// 4 × (size() + 1) × grain indices a chunk spans more than `grain`.
  template <typename F>
  void parallel_for_chunks(std::size_t begin, std::size_t end, F&& fn,
                           std::size_t grain = 256) {
    using Fn = std::remove_reference_t<F>;
    run_chunked(
        begin, end,
        [](void* ctx, std::size_t lo, std::size_t hi) {
          (*static_cast<Fn*>(ctx))(lo, hi);
        },
        const_cast<void*>(static_cast<const void*>(std::addressof(fn))),
        grain);
  }

  /// The type-erased core of parallel_for/parallel_for_chunks. Splits
  /// [begin, end) into equal chunks of max(grain, ceil(n / (4 × (size() +
  /// 1)))) consecutive indices — at most 4 × (size() + 1) chunks — and
  /// dispatches them through the ticket slot. Callers that need every item
  /// claimable on its own past that cap launch one puller per thread and
  /// share their own atomic item counter instead. Nested launches (from
  /// inside a chunk) and launches racing another thread's launch run inline
  /// on the caller.
  void run_chunked(std::size_t begin, std::size_t end, ChunkFn fn, void* ctx,
                   std::size_t grain);

  /// Aggregates the per-worker counters (racy but monotone reads).
  [[nodiscard]] PoolStats stats() const;

  /// Writes stats() into MetricsRegistry::global() as "pool.*" gauges.
  /// Gauges (not counters) so repeated publication is idempotent.
  void publish_metrics() const;

  /// Process-wide pool sized to the hardware. Used by the engines by default.
  static ThreadPool& global();

 private:
  /// One cache line per worker so counter updates never false-share.
  /// Slot workers_.size() belongs to the launching (caller) thread.
  struct alignas(64) WorkerCounters {
    std::atomic<std::uint64_t> tasks{0};
    std::atomic<std::uint64_t> busy_ns{0};
    std::atomic<std::uint64_t> idle_ns{0};
  };

  void worker_loop(std::size_t widx);
  /// Pulls tickets of the current launch until exhausted.
  void execute_tickets(WorkerCounters& wc);
  void run_one_chunk(std::size_t lo, std::size_t hi, WorkerCounters& wc);

  std::vector<std::thread> workers_;
  std::unique_ptr<WorkerCounters[]> counters_;  ///< size workers_.size() + 1
  std::atomic<std::uint64_t> tasks_queued_{0};

  // ---- launch slot (one launch active at a time; claim_ serializes) -------
  // Plain fields: written only while `sync_` holds an odd epoch with zero
  // joiners (the writer phase), read only by threads joined via `sync_`.
  ChunkFn fn_ = nullptr;
  void* ctx_ = nullptr;
  std::size_t begin_ = 0;
  std::size_t end_ = 0;
  std::size_t chunk_ = 0;
  std::size_t num_chunks_ = 0;
  std::atomic<std::size_t> next_ticket_{0};
  std::atomic<std::size_t> remaining_{0};
  // Ticket dispatch fetch-adds next_ticket_ and decrements remaining_ on
  // every chunk; a library-lock fallback there would serialize the whole
  // launch behind one hidden mutex.
  static_assert(std::atomic<std::size_t>::is_always_lock_free,
                "ticket counters must be native atomic RMWs");
  Mutex error_mutex_{"pool.error", lockrank::kPoolError};
  /// First exception thrown by any chunk of the current launch; read by the
  /// launcher after the launch drains.
  std::exception_ptr first_error_ INSTA_GUARDED_BY(error_mutex_);
  /// Set (under error_mutex_, release order) when first_error_ is armed, so
  /// the launcher's drain path checks one atomic instead of taking the lock.
  std::atomic<bool> has_error_{false};
  /// Per-launch chunk-duration extremes for the imbalance histogram.
  std::atomic<std::uint64_t> launch_min_ns_{0};
  std::atomic<std::uint64_t> launch_max_ns_{0};

  /// Epoch/join word: (epoch << 32) | joiner_count. An odd epoch means a
  /// launcher is writing the slot fields; workers join a stable (even, new)
  /// epoch by CAS-incrementing the joiner count, which blocks the next
  /// writer until they leave. This makes the plain launch fields data-race
  /// free without making them atomic.
  std::atomic<std::uint64_t> sync_{0};
  // The packed word layout — epoch in bits [63:32], joiner count in bits
  // [31:0] — only synchronizes if the CAS on the whole 64-bit word is a
  // single hardware RMW. A non-lock-free fallback would wrap it in a
  // library mutex, reintroducing the blocking the epoch protocol exists to
  // avoid (and deadlocking the writer spin that waits for joiners to drain
  // while holding that hidden lock).
  static_assert(std::atomic<std::uint64_t>::is_always_lock_free,
                "epoch/joiner sync word must be a native 64-bit atomic");
  /// Serializes launchers; a failed claim falls back to inline execution.
  std::atomic<bool> claim_{false};

  // ---- worker parking (cold path only) ------------------------------------
  std::atomic<std::uint32_t> sleepers_{0};
  Mutex sleep_mutex_{"pool.sleep", lockrank::kPoolSleep};
  CondVar sleep_cv_;
  std::atomic<bool> stop_{false};
};

}  // namespace insta::util
