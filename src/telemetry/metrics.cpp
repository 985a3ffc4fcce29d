#include "telemetry/metrics.hpp"

#include <algorithm>
#include <limits>
#include <stdexcept>

#include "telemetry/json.hpp"

namespace insta::telemetry {

double HistogramSnapshot::percentile(double q) const {
  if (count == 0) return 0.0;
  q = std::clamp(q, 0.0, 1.0);
  const double target = q * static_cast<double>(count);
  std::uint64_t cum = 0;
  for (std::size_t b = 0; b < buckets.size(); ++b) {
    if (buckets[b] == 0) continue;
    const double before = static_cast<double>(cum);
    cum += buckets[b];
    if (static_cast<double>(cum) < target) continue;
    // The target rank falls inside bucket b; interpolate linearly between
    // its bounds, clamped to the observed range (bucket 0 has no lower
    // bound and the last bucket no upper bound).
    double lo = b == 0 ? min : bounds[b - 1];
    double hi = b < bounds.size() ? bounds[b] : max;
    lo = std::clamp(lo, min, max);
    hi = std::clamp(hi, lo, max);
    const double frac =
        (target - before) / static_cast<double>(buckets[b]);
    return lo + (hi - lo) * frac;
  }
  return max;
}

std::uint64_t MetricsSnapshot::counter_or(std::string_view name,
                                          std::uint64_t fallback) const {
  const auto it = counters.find(std::string(name));
  return it == counters.end() ? fallback : it->second;
}

double MetricsSnapshot::gauge_or(std::string_view name, double fallback) const {
  const auto it = gauges.find(std::string(name));
  return it == gauges.end() ? fallback : it->second;
}

std::string MetricsSnapshot::to_json() const {
  std::string out = "{\n  \"counters\": {";
  bool first = true;
  for (const auto& [name, value] : counters) {
    out += first ? "\n" : ",\n";
    first = false;
    out += "    \"" + json_escape(name) + "\": " + std::to_string(value);
  }
  out += first ? "},\n" : "\n  },\n";
  out += "  \"gauges\": {";
  first = true;
  for (const auto& [name, value] : gauges) {
    out += first ? "\n" : ",\n";
    first = false;
    out += "    \"" + json_escape(name) + "\": " + json_number(value);
  }
  out += first ? "},\n" : "\n  },\n";
  out += "  \"histograms\": {";
  first = true;
  for (const auto& [name, h] : histograms) {
    out += first ? "\n" : ",\n";
    first = false;
    out += "    \"" + json_escape(name) + "\": {\"count\": " +
           std::to_string(h.count) + ", \"sum\": " + json_number(h.sum) +
           ", \"min\": " + json_number(h.min) +
           ", \"max\": " + json_number(h.max) +
           ", \"p50\": " + json_number(h.percentile(0.50)) +
           ", \"p95\": " + json_number(h.percentile(0.95)) +
           ", \"p99\": " + json_number(h.percentile(0.99)) + ", \"bounds\": [";
    for (std::size_t i = 0; i < h.bounds.size(); ++i) {
      if (i != 0) out += ", ";
      out += json_number(h.bounds[i]);
    }
    out += "], \"buckets\": [";
    for (std::size_t i = 0; i < h.buckets.size(); ++i) {
      if (i != 0) out += ", ";
      out += std::to_string(h.buckets[i]);
    }
    out += "]}";
  }
  out += first ? "}\n" : "\n  }\n";
  out += "}\n";
  return out;
}

namespace {

std::atomic<std::uint64_t> g_registry_uid{1};

constexpr std::uint64_t kPosInfBits = 0x7FF0000000000000ULL;
constexpr std::uint64_t kNegInfBits = 0xFFF0000000000000ULL;

}  // namespace

MetricsRegistry::Shard::Shard() { clear(); }

void MetricsRegistry::Shard::clear() {
  for (auto& c : counters) c.store(0, std::memory_order_relaxed);
  for (auto& h : hists) {
    for (auto& b : h.buckets) b.store(0, std::memory_order_relaxed);
    h.sum_bits.store(0, std::memory_order_relaxed);
    h.min_bits.store(kPosInfBits, std::memory_order_relaxed);
    h.max_bits.store(kNegInfBits, std::memory_order_relaxed);
  }
}

MetricsRegistry::MetricsRegistry()
    : uid_(g_registry_uid.fetch_add(1, std::memory_order_relaxed)) {}

MetricsRegistry& MetricsRegistry::global() {
  static MetricsRegistry registry;
  return registry;
}

Counter MetricsRegistry::counter(std::string_view name) {
  const util::LockGuard lock(mutex_);
  Counter c;
  c.reg_ = this;
  for (std::size_t i = 0; i < counter_names_.size(); ++i) {
    if (counter_names_[i] == name) {
      c.id_ = static_cast<std::int32_t>(i);
      return c;
    }
  }
  if (counter_names_.size() >= static_cast<std::size_t>(kMaxCounters)) {
    throw std::runtime_error("MetricsRegistry: counter capacity exhausted");
  }
  counter_names_.emplace_back(name);
  c.id_ = static_cast<std::int32_t>(counter_names_.size() - 1);
  return c;
}

Gauge MetricsRegistry::gauge(std::string_view name) {
  const util::LockGuard lock(mutex_);
  Gauge g;
  for (std::size_t i = 0; i < gauge_names_.size(); ++i) {
    if (gauge_names_[i] == name) {
      g.slot_ = gauge_bits_[i].get();
      return g;
    }
  }
  gauge_names_.emplace_back(name);
  gauge_bits_.push_back(std::make_unique<std::atomic<std::uint64_t>>(
      std::bit_cast<std::uint64_t>(0.0)));
  g.slot_ = gauge_bits_.back().get();
  return g;
}

Histogram MetricsRegistry::histogram(std::string_view name,
                                     HistogramSpec spec) {
  if (!(spec.base > 0.0) || !(spec.growth > 1.0)) {
    throw std::runtime_error("MetricsRegistry: histogram spec requires base "
                             "> 0 and growth > 1");
  }
  const util::LockGuard lock(mutex_);
  Histogram h;
  h.reg_ = this;
  for (std::size_t i = 0; i < hist_names_.size(); ++i) {
    if (hist_names_[i] != name) continue;
    if (hist_specs_[i].base != spec.base ||
        hist_specs_[i].growth != spec.growth) {
      throw std::runtime_error(
          "MetricsRegistry: histogram '" + std::string(name) +
          "' re-registered with a different spec");
    }
    h.id_ = static_cast<std::int32_t>(i);
    h.base_ = spec.base;
    h.inv_log_growth_ = 1.0 / std::log(spec.growth);
    return h;
  }
  if (hist_names_.size() >= static_cast<std::size_t>(kMaxHistograms)) {
    throw std::runtime_error("MetricsRegistry: histogram capacity exhausted");
  }
  hist_names_.emplace_back(name);
  hist_specs_.push_back(spec);
  h.id_ = static_cast<std::int32_t>(hist_names_.size() - 1);
  h.base_ = spec.base;
  h.inv_log_growth_ = 1.0 / std::log(spec.growth);
  return h;
}

MetricsRegistry::Shard* MetricsRegistry::shard_slow() {
  const util::LockGuard lock(mutex_);
  Shard*& s = shard_of_thread_[std::this_thread::get_id()];
  if (s == nullptr) {
    shards_.push_back(std::make_unique<Shard>());
    s = shards_.back().get();
  }
  tls_cache_ = TlsCache{uid_, s};
  return s;
}

MetricsSnapshot MetricsRegistry::snapshot() const {
  const util::LockGuard lock(mutex_);
  MetricsSnapshot snap;
  for (std::size_t i = 0; i < counter_names_.size(); ++i) {
    std::uint64_t total = 0;
    for (const auto& shard : shards_) {
      total += shard->counters[i].load(std::memory_order_relaxed);
    }
    snap.counters[counter_names_[i]] = total;
  }
  for (std::size_t i = 0; i < gauge_names_.size(); ++i) {
    snap.gauges[gauge_names_[i]] =
        std::bit_cast<double>(gauge_bits_[i]->load(std::memory_order_relaxed));
  }
  for (std::size_t i = 0; i < hist_names_.size(); ++i) {
    HistogramSnapshot hs;
    hs.buckets.assign(static_cast<std::size_t>(kNumBuckets), 0);
    double mn = std::numeric_limits<double>::infinity();
    double mx = -std::numeric_limits<double>::infinity();
    for (const auto& shard : shards_) {
      const HistShard& h = shard->hists[i];
      for (std::size_t b = 0; b < hs.buckets.size(); ++b) {
        hs.buckets[b] += h.buckets[b].load(std::memory_order_relaxed);
      }
      hs.sum += std::bit_cast<double>(h.sum_bits.load(std::memory_order_relaxed));
      mn = std::min(mn,
                    std::bit_cast<double>(h.min_bits.load(std::memory_order_relaxed)));
      mx = std::max(mx,
                    std::bit_cast<double>(h.max_bits.load(std::memory_order_relaxed)));
    }
    for (const std::uint64_t b : hs.buckets) hs.count += b;
    hs.min = std::isfinite(mn) ? mn : 0.0;
    hs.max = std::isfinite(mx) ? mx : 0.0;
    const HistogramSpec& spec = hist_specs_[i];
    hs.bounds.reserve(static_cast<std::size_t>(kNumBuckets) - 1);
    double bound = spec.base;
    for (std::int32_t b = 0; b + 1 < kNumBuckets; ++b) {
      hs.bounds.push_back(bound);
      bound *= spec.growth;
    }
    snap.histograms[hist_names_[i]] = std::move(hs);
  }
  return snap;
}

void MetricsRegistry::reset() {
  const util::LockGuard lock(mutex_);
  for (const auto& shard : shards_) shard->clear();
  for (const auto& g : gauge_bits_) {
    g->store(std::bit_cast<std::uint64_t>(0.0), std::memory_order_relaxed);
  }
}

}  // namespace insta::telemetry
