#pragma once

// Thread-safe metrics registry with a lock-free fast path.
//
// Counters, gauges and fixed-exponential-bucket histograms are registered
// by name (idempotently) and written through small value-type handles.
// Counter/histogram writes go to per-thread shards: each thread owns a
// private array of atomics it alone writes (relaxed), so the hot path is a
// cached thread-local lookup plus an uncontended atomic add — no locks and
// no cross-core cache-line bouncing. snapshot() aggregates every shard
// under the registry mutex and can run concurrently with writers (writers
// never block; the snapshot is a relaxed but internally consistent view:
// histogram counts are derived from bucket sums, never stored separately).

#include <algorithm>
#include <array>
#include <atomic>
#include <bit>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "util/mutex.hpp"
#include "util/thread_annotations.hpp"

namespace insta::telemetry {

/// Exponential bucket layout of a histogram: bucket 0 holds values <= base,
/// bucket i holds values in (base*growth^(i-1), base*growth^i], and the
/// last bucket is unbounded. The bucket count is fixed (kNumBuckets) so
/// per-thread shards can use flat arrays.
struct HistogramSpec {
  double base = 1.0;
  double growth = 2.0;
};

/// Aggregated state of one histogram at snapshot time.
struct HistogramSnapshot {
  std::vector<double> bounds;          ///< upper bound of bucket i; size buckets-1
  std::vector<std::uint64_t> buckets;  ///< observation count per bucket
  std::uint64_t count = 0;
  double sum = 0.0;
  double min = 0.0;  ///< 0 when count == 0
  double max = 0.0;  ///< 0 when count == 0

  /// Estimated value at quantile q in [0, 1] (q = 0.5 is the median),
  /// linearly interpolated inside the exponential bucket containing the
  /// target rank. The first and last buckets are clamped to the observed
  /// min/max, so estimates always land in [min, max]; within any other
  /// bucket the error is bounded by the bucket width (a factor of `growth`
  /// on the default spec). 0 when the histogram is empty.
  [[nodiscard]] double percentile(double q) const;
};

/// A point-in-time aggregation of every registered metric.
struct MetricsSnapshot {
  std::map<std::string, std::uint64_t> counters;
  std::map<std::string, double> gauges;
  std::map<std::string, HistogramSnapshot> histograms;

  [[nodiscard]] std::uint64_t counter_or(std::string_view name,
                                         std::uint64_t fallback) const;
  [[nodiscard]] double gauge_or(std::string_view name, double fallback) const;
  [[nodiscard]] bool empty() const {
    return counters.empty() && gauges.empty() && histograms.empty();
  }

  /// Serializes to the stable JSON schema consumed by telemetry_check:
  /// {"counters": {...}, "gauges": {...}, "histograms": {name: {count,
  /// sum, min, max, p50, p95, p99, bounds, buckets}}}.
  [[nodiscard]] std::string to_json() const;
};

class MetricsRegistry;

/// Monotonic counter handle. Copyable, trivially destructible; add() is
/// safe from any thread. A default-constructed handle is a no-op.
class Counter {
 public:
  Counter() = default;
  void add(std::uint64_t n);
  void inc() { add(1); }

 private:
  friend class MetricsRegistry;
  MetricsRegistry* reg_ = nullptr;
  std::int32_t id_ = -1;
};

/// Last-value / running-max gauge handle (stored as a double). The handle
/// holds a stable pointer to the gauge's atomic slot, so set() never touches
/// the registry.
class Gauge {
 public:
  Gauge() = default;
  void set(double v);
  void set_max(double v);

 private:
  friend class MetricsRegistry;
  std::atomic<std::uint64_t>* slot_ = nullptr;  ///< double bit pattern
};

/// Histogram handle; observe() is safe from any thread.
class Histogram {
 public:
  Histogram() = default;
  void observe(double v);

 private:
  friend class MetricsRegistry;
  MetricsRegistry* reg_ = nullptr;
  std::int32_t id_ = -1;
  double base_ = 1.0;
  double inv_log_growth_ = 1.0;  ///< 1 / ln(growth)
};

/// RAII wall-clock timer that observes elapsed microseconds into a
/// histogram at scope exit (the "phase.*" histograms drive the profile
/// subcommand's breakdown table).
class ScopedTimer {
 public:
  explicit ScopedTimer(Histogram h)
      : hist_(h), start_(std::chrono::steady_clock::now()) {}
  ScopedTimer(const ScopedTimer&) = delete;
  ScopedTimer& operator=(const ScopedTimer&) = delete;
  ~ScopedTimer() {
    const auto ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
                        std::chrono::steady_clock::now() - start_)
                        .count();
    hist_.observe(static_cast<double>(ns) * 1e-3);
  }

 private:
  Histogram hist_;
  std::chrono::steady_clock::time_point start_;
};

class MetricsRegistry {
 public:
  static constexpr std::int32_t kMaxCounters = 256;
  static constexpr std::int32_t kMaxHistograms = 64;
  static constexpr std::int32_t kNumBuckets = 28;

  MetricsRegistry();
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;
  ~MetricsRegistry() = default;

  /// Process-wide registry the instrumentation sites use.
  static MetricsRegistry& global();

  /// Registers (or finds) a metric by name and returns its handle.
  /// Throws std::runtime_error when a fixed capacity is exhausted or when a
  /// histogram is re-registered with a different spec.
  Counter counter(std::string_view name);
  Gauge gauge(std::string_view name);
  Histogram histogram(std::string_view name, HistogramSpec spec = {});

  /// Aggregates all shards. Safe to call while other threads write.
  [[nodiscard]] MetricsSnapshot snapshot() const;

  /// Zeroes every value (registrations survive). Not linearizable against
  /// concurrent writers; meant for test isolation and between bench runs.
  void reset();

 private:
  friend class Counter;
  friend class Histogram;

  struct HistShard {
    std::array<std::atomic<std::uint64_t>, kNumBuckets> buckets;
    std::atomic<std::uint64_t> sum_bits;  ///< double bit pattern
    std::atomic<std::uint64_t> min_bits;
    std::atomic<std::uint64_t> max_bits;
  };

  struct Shard {
    Shard();
    void clear();
    std::array<std::atomic<std::uint64_t>, kMaxCounters> counters;
    std::array<HistShard, kMaxHistograms> hists;
  };

  struct TlsCache {
    std::uint64_t uid;
    void* shard;
  };

  void counter_add(std::int32_t id, std::uint64_t n) {
    shard()->counters[static_cast<std::size_t>(id)].fetch_add(
        n, std::memory_order_relaxed);
  }

  void hist_observe(std::int32_t id, std::int32_t bucket, double v) {
    HistShard& h = shard()->hists[static_cast<std::size_t>(id)];
    h.buckets[static_cast<std::size_t>(bucket)].fetch_add(
        1, std::memory_order_relaxed);
    // Only the owning thread writes its shard, so load+modify+store is
    // single-writer; the atomics exist for the snapshot reader.
    const double sum =
        std::bit_cast<double>(h.sum_bits.load(std::memory_order_relaxed)) + v;
    h.sum_bits.store(std::bit_cast<std::uint64_t>(sum),
                     std::memory_order_relaxed);
    const double mn =
        std::bit_cast<double>(h.min_bits.load(std::memory_order_relaxed));
    if (v < mn) {
      h.min_bits.store(std::bit_cast<std::uint64_t>(v),
                       std::memory_order_relaxed);
    }
    const double mx =
        std::bit_cast<double>(h.max_bits.load(std::memory_order_relaxed));
    if (v > mx) {
      h.max_bits.store(std::bit_cast<std::uint64_t>(v),
                       std::memory_order_relaxed);
    }
  }

  Shard* shard() {
    if (tls_cache_.uid == uid_) return static_cast<Shard*>(tls_cache_.shard);
    return shard_slow();
  }
  Shard* shard_slow();

  inline static thread_local TlsCache tls_cache_{0, nullptr};

  /// Guards registration and the shard table. The write fast paths
  /// (counter_add/hist_observe) stay lock-free by design: they touch only
  /// the atomics inside an already-published Shard, never the guarded
  /// containers below.
  mutable util::Mutex mutex_{"telemetry.registry",
                             util::lockrank::kTelemetryRegistry};
  std::uint64_t uid_;  ///< process-unique registry id for TLS cache keying
  std::vector<std::string> counter_names_ INSTA_GUARDED_BY(mutex_);
  std::vector<std::string> gauge_names_ INSTA_GUARDED_BY(mutex_);
  std::vector<std::unique_ptr<std::atomic<std::uint64_t>>> gauge_bits_
      INSTA_GUARDED_BY(mutex_);
  std::vector<std::string> hist_names_ INSTA_GUARDED_BY(mutex_);
  std::vector<HistogramSpec> hist_specs_ INSTA_GUARDED_BY(mutex_);
  std::vector<std::unique_ptr<Shard>> shards_ INSTA_GUARDED_BY(mutex_);
  std::map<std::thread::id, Shard*> shard_of_thread_ INSTA_GUARDED_BY(mutex_);
};

inline void Counter::add(std::uint64_t n) {
  if (reg_ == nullptr) return;
  reg_->counter_add(id_, n);
}

inline void Gauge::set(double v) {
  if (slot_ == nullptr) return;
  slot_->store(std::bit_cast<std::uint64_t>(v), std::memory_order_relaxed);
}

inline void Gauge::set_max(double v) {
  if (slot_ == nullptr) return;
  std::uint64_t cur = slot_->load(std::memory_order_relaxed);
  while (v > std::bit_cast<double>(cur) &&
         !slot_->compare_exchange_weak(
             cur, std::bit_cast<std::uint64_t>(v), std::memory_order_relaxed)) {
  }
}

inline void Histogram::observe(double v) {
  if (reg_ == nullptr) return;
  std::int32_t b = 0;
  if (v > base_) {
    const double l = std::log(v / base_) * inv_log_growth_;
    b = std::clamp(static_cast<std::int32_t>(std::ceil(l - 1e-9)), 1,
                   MetricsRegistry::kNumBuckets - 1);
  }
  reg_->hist_observe(id_, b, v);
}

}  // namespace insta::telemetry
