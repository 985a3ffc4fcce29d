#include "util/thread_pool.hpp"

#include <algorithm>
#include <chrono>

#include "telemetry/telemetry.hpp"

namespace insta::util {

namespace {

std::uint64_t elapsed_ns(std::chrono::steady_clock::time_point since) {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - since)
          .count());
}

/// Busy-wait hint: keeps the spinning hardware thread polite without a
/// scheduler round-trip.
inline void cpu_relax() {
#if defined(__x86_64__) || defined(__i386__)
  __builtin_ia32_pause();
#elif defined(__aarch64__) || defined(__arm__)
  asm volatile("yield" ::: "memory");
#else
  std::this_thread::yield();
#endif
}

/// Spins this many cpu_relax() rounds before a worker parks on the condvar.
/// Sized so back-to-back per-level launches (microseconds apart) never pay
/// the mutex/condvar round-trip.
constexpr int kIdleSpins = 4096;

constexpr std::uint64_t kEpochShift = 32;
constexpr std::uint64_t kJoinerMask = (std::uint64_t{1} << kEpochShift) - 1;

}  // namespace

ThreadPool::ThreadPool(std::size_t num_threads) {
  if (num_threads == 0) {
    num_threads = std::max<std::size_t>(1, std::thread::hardware_concurrency());
  }
  // One extra counter slot for chunks the launching thread executes itself.
  counters_ = std::make_unique<WorkerCounters[]>(num_threads + 1);
  workers_.reserve(num_threads);
  for (std::size_t i = 0; i < num_threads; ++i) {
    workers_.emplace_back([this, i] { worker_loop(i); });
  }
}

ThreadPool::~ThreadPool() {
  stop_.store(true, std::memory_order_seq_cst);
  {
    const LockGuard lock(sleep_mutex_);
  }
  sleep_cv_.notify_all();
  for (auto& w : workers_) w.join();
}

void ThreadPool::run_one_chunk(std::size_t lo, std::size_t hi,
                               WorkerCounters& wc) {
  try {
    INSTA_TRACE_SCOPE("pool.chunk", static_cast<std::int64_t>(hi - lo));
    const auto chunk_start = std::chrono::steady_clock::now();
    fn_(ctx_, lo, hi);
    const std::uint64_t ns = elapsed_ns(chunk_start);
    wc.busy_ns.fetch_add(ns, std::memory_order_relaxed);
    wc.tasks.fetch_add(1, std::memory_order_relaxed);
    static telemetry::Histogram chunk_us =
        telemetry::MetricsRegistry::global().histogram(
            "pool.chunk_us", telemetry::HistogramSpec{1.0, 2.0});
    chunk_us.observe(static_cast<double>(ns) * 1e-3);
    // CAS-min/max: per-launch extremes for the imbalance histogram.
    std::uint64_t cur = launch_min_ns_.load(std::memory_order_relaxed);
    while (ns < cur && !launch_min_ns_.compare_exchange_weak(
                           cur, ns, std::memory_order_relaxed)) {
    }
    cur = launch_max_ns_.load(std::memory_order_relaxed);
    while (ns > cur && !launch_max_ns_.compare_exchange_weak(
                           cur, ns, std::memory_order_relaxed)) {
    }
  } catch (...) {
    const LockGuard lock(error_mutex_);
    if (!first_error_) {
      first_error_ = std::current_exception();
      // Release pairs with the launcher's acquire load after the drain.
      has_error_.store(true, std::memory_order_release);
    }
  }
}

void ThreadPool::execute_tickets(WorkerCounters& wc) {
  for (;;) {
    const std::size_t t = next_ticket_.fetch_add(1, std::memory_order_relaxed);
    if (t >= num_chunks_) return;
    const std::size_t lo = begin_ + t * chunk_;
    const std::size_t hi = std::min(end_, lo + chunk_);
    run_one_chunk(lo, hi, wc);
    // Release so the launcher's acquire-read of remaining_ == 0 makes every
    // chunk's side effects (and any stored exception) visible.
    remaining_.fetch_sub(1, std::memory_order_acq_rel);
  }
}

void ThreadPool::worker_loop(std::size_t widx) {
  WorkerCounters& wc = counters_[widx];
  std::uint64_t done_epoch = 0;  // most recent epoch this worker finished
  int spins = 0;
  for (;;) {
    if (stop_.load(std::memory_order_acquire)) return;
    std::uint64_t s = sync_.load(std::memory_order_acquire);
    const std::uint64_t ep = s >> kEpochShift;
    if ((ep & 1) != 0 || ep == done_epoch) {
      // No fresh launch: spin briefly, then park on the condvar.
      if (++spins < kIdleSpins) {
        cpu_relax();
        continue;
      }
      spins = 0;
      const auto wait_start = std::chrono::steady_clock::now();
      {
        UniqueLock lock(sleep_mutex_);
        sleepers_.fetch_add(1, std::memory_order_seq_cst);
        // Predicate reads only atomics, so Clang's lambda-blind analysis
        // has nothing guarded to miss here.
        sleep_cv_.wait(lock, [&] {
          // seq_cst pairs with the launcher's seq_cst publish of sync_
          // followed by its seq_cst read of sleepers_: either this read sees
          // the new epoch, or the launcher sees the sleeper and notifies.
          if (stop_.load(std::memory_order_seq_cst)) return true;
          const std::uint64_t cur =
              sync_.load(std::memory_order_seq_cst) >> kEpochShift;
          return (cur & 1) == 0 && cur != done_epoch;
        });
        sleepers_.fetch_sub(1, std::memory_order_seq_cst);
      }
      wc.idle_ns.fetch_add(elapsed_ns(wait_start), std::memory_order_relaxed);
      continue;
    }
    // Join epoch `ep`: bump the joiner count iff the word is unchanged. A
    // successful join pins the launch fields (the next writer spins until
    // the joiner count returns to zero).
    if (!sync_.compare_exchange_weak(s, s + 1, std::memory_order_acq_rel,
                                     std::memory_order_relaxed)) {
      continue;
    }
    execute_tickets(wc);
    done_epoch = ep;
    sync_.fetch_sub(1, std::memory_order_acq_rel);
    spins = 0;
  }
}

void ThreadPool::run_chunked(std::size_t begin, std::size_t end, ChunkFn fn,
                             void* ctx, std::size_t grain) {
  if (begin >= end) return;
  const std::size_t n = end - begin;
  grain = std::max<std::size_t>(grain, 1);
  if (n <= grain || workers_.empty()) {
    fn(ctx, begin, end);
    return;
  }
  // One launch at a time. Nested launches (a chunk body launching again) and
  // launches racing another thread's launch run inline on the caller — the
  // exception contract holds trivially there.
  bool expected = false;
  if (!claim_.compare_exchange_strong(expected, true,
                                      std::memory_order_acq_rel)) {
    fn(ctx, begin, end);
    return;
  }

  const std::size_t max_chunks = (workers_.size() + 1) * 4;
  const std::size_t chunk = std::max(grain, (n + max_chunks - 1) / max_chunks);
  const std::size_t num_chunks = (n + chunk - 1) / chunk;
  if (num_chunks <= 1) {
    claim_.store(false, std::memory_order_release);
    fn(ctx, begin, end);
    return;
  }

  static telemetry::Counter pf_calls =
      telemetry::MetricsRegistry::global().counter("pool.parallel_for_calls");
  static telemetry::Counter pf_chunks =
      telemetry::MetricsRegistry::global().counter("pool.chunks");
  // Spread between the slowest and fastest chunk of one launch, as a
  // percent of the slowest — 0 means perfectly balanced chunks.
  static telemetry::Histogram imbalance =
      telemetry::MetricsRegistry::global().histogram(
          "pool.chunk_imbalance_pct", telemetry::HistogramSpec{1.0, 1.6});
  pf_calls.inc();
  pf_chunks.add(num_chunks);
  tasks_queued_.fetch_add(num_chunks, std::memory_order_relaxed);

  // Writer phase: flip the epoch to odd once every straggler joiner of the
  // previous launch has checked out, fill the slot, publish an even epoch.
  std::uint64_t expected_sync =
      sync_.load(std::memory_order_relaxed) & ~kJoinerMask;
  std::uint64_t ep;
  for (;;) {
    ep = expected_sync >> kEpochShift;
    if (sync_.compare_exchange_weak(expected_sync, (ep + 1) << kEpochShift,
                                    std::memory_order_acq_rel,
                                    std::memory_order_relaxed)) {
      break;
    }
    expected_sync &= ~kJoinerMask;  // retry expecting zero joiners
    cpu_relax();
  }
  fn_ = fn;
  ctx_ = ctx;
  begin_ = begin;
  end_ = end;
  chunk_ = chunk;
  num_chunks_ = num_chunks;
  next_ticket_.store(0, std::memory_order_relaxed);
  remaining_.store(num_chunks, std::memory_order_relaxed);
  launch_min_ns_.store(~std::uint64_t{0}, std::memory_order_relaxed);
  launch_max_ns_.store(0, std::memory_order_relaxed);
  sync_.store((ep + 2) << kEpochShift, std::memory_order_seq_cst);

  if (sleepers_.load(std::memory_order_seq_cst) > 0) {
    {
      const LockGuard lock(sleep_mutex_);
    }
    sleep_cv_.notify_all();
  }

  // The caller is a full participant: it pulls tickets like a worker, then
  // spin-waits for at most workers_.size() chunks still in flight.
  execute_tickets(counters_[workers_.size()]);
  int spin = 0;
  while (remaining_.load(std::memory_order_acquire) != 0) {
    if (++spin < 1024) {
      cpu_relax();
    } else {
      std::this_thread::yield();
    }
  }

  const std::uint64_t mn = launch_min_ns_.load(std::memory_order_relaxed);
  const std::uint64_t mx = launch_max_ns_.load(std::memory_order_relaxed);
  if (mx > 0 && mn != ~std::uint64_t{0}) {
    imbalance.observe(100.0 * static_cast<double>(mx - mn) /
                      static_cast<double>(mx));
  }

  // All chunk completions happen-before the remaining_ == 0 read, so the
  // error slot is stable; take it (under its lock, on the cold path only)
  // before releasing the claim.
  std::exception_ptr err;
  if (has_error_.load(std::memory_order_acquire)) {
    const LockGuard lock(error_mutex_);
    err = std::move(first_error_);
    first_error_ = nullptr;
    has_error_.store(false, std::memory_order_relaxed);
  }
  claim_.store(false, std::memory_order_release);
  if (err) std::rethrow_exception(err);
}

ThreadPool::PoolStats ThreadPool::stats() const {
  PoolStats s;
  s.workers = workers_.size();
  s.tasks_queued = tasks_queued_.load(std::memory_order_relaxed);
  for (std::size_t i = 0; i <= workers_.size(); ++i) {
    const WorkerCounters& wc = counters_[i];
    const auto busy = wc.busy_ns.load(std::memory_order_relaxed);
    const auto idle = wc.idle_ns.load(std::memory_order_relaxed);
    s.tasks_executed += wc.tasks.load(std::memory_order_relaxed);
    s.busy_sec += static_cast<double>(busy) * 1e-9;
    s.idle_sec += static_cast<double>(idle) * 1e-9;
    if (busy + idle > 0) {
      const double idle_pct = 100.0 * static_cast<double>(idle) /
                              static_cast<double>(busy + idle);
      s.max_worker_idle_pct = std::max(s.max_worker_idle_pct, idle_pct);
    }
  }
  return s;
}

void ThreadPool::publish_metrics() const {
  const PoolStats s = stats();
  auto& reg = telemetry::MetricsRegistry::global();
  reg.gauge("pool.workers").set(static_cast<double>(s.workers));
  reg.gauge("pool.tasks_queued").set(static_cast<double>(s.tasks_queued));
  reg.gauge("pool.tasks_executed").set(static_cast<double>(s.tasks_executed));
  reg.gauge("pool.busy_sec").set(s.busy_sec);
  reg.gauge("pool.idle_sec").set(s.idle_sec);
  reg.gauge("pool.max_worker_idle_pct").set(s.max_worker_idle_pct);
  const double total = s.busy_sec + s.idle_sec;
  reg.gauge("pool.utilization_pct")
      .set(total > 0.0 ? 100.0 * s.busy_sec / total : 0.0);
}

ThreadPool& ThreadPool::global() {
  static ThreadPool pool;
  return pool;
}

}  // namespace insta::util
