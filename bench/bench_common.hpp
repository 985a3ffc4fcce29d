#pragma once

// Shared harness helpers for the table/figure benchmark binaries.

#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <ctime>
#include <fstream>
#include <functional>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "core/engine.hpp"
#include "gen/logic_block.hpp"
#include "gen/tune.hpp"
#include "ref/golden_sta.hpp"
#include "telemetry/json.hpp"
#include "telemetry/metrics.hpp"
#include "timing/delay_calc.hpp"
#include "timing/graph.hpp"
#include "util/log.hpp"
#include "util/thread_pool.hpp"
#include "util/timer.hpp"

// Build provenance baked in by bench/CMakeLists.txt; the fallbacks keep the
// header self-contained for ad-hoc builds.
#ifndef INSTA_GIT_DESCRIBE
#define INSTA_GIT_DESCRIBE "unknown"
#endif
#ifndef INSTA_BUILD_FLAGS
#define INSTA_BUILD_FLAGS ""
#endif

namespace insta::bench {

/// ISO-8601 UTC timestamp of the call ("2026-08-09T12:34:56Z").
inline std::string iso8601_utc_now() {
  const std::time_t t = std::time(nullptr);
  std::tm tm{};
  gmtime_r(&t, &tm);
  char buf[32];
  std::strftime(buf, sizeof(buf), "%Y-%m-%dT%H:%M:%SZ", &tm);
  return buf;
}

/// The machine's hostname ("unknown" on failure).
inline std::string host_name() {
  char buf[256] = {};
  if (::gethostname(buf, sizeof(buf) - 1) != 0) return "unknown";
  return buf;
}

/// Compiler id + version string of the translation unit.
inline std::string compiler_id() {
#if defined(__clang__)
  return std::string("clang ") + __clang_version__;
#elif defined(__GNUC__)
  return std::string("gcc ") + __VERSION__;
#else
  return "unknown";
#endif
}

/// Wall-clock statistics of `reps` runs of one operation. Median is the
/// headline number (robust to one-off scheduler hiccups); min approximates
/// the noise-free cost; mean shows drift across repetitions.
struct TimingStats {
  double median_sec = 0.0;
  double min_sec = 0.0;
  double mean_sec = 0.0;
  int reps = 0;
};

/// Times `fn` `reps` times (no warm-up — add your own if the first run
/// amortizes setup).
inline TimingStats time_repeated(int reps, const std::function<void()>& fn) {
  TimingStats ts;
  ts.reps = std::max(reps, 1);
  std::vector<double> secs;
  secs.reserve(static_cast<std::size_t>(ts.reps));
  for (int i = 0; i < ts.reps; ++i) {
    util::Stopwatch sw;
    fn();
    secs.push_back(sw.elapsed_sec());
  }
  std::sort(secs.begin(), secs.end());
  ts.min_sec = secs.front();
  const std::size_t n = secs.size();
  ts.median_sec =
      (n % 2 == 1) ? secs[n / 2] : 0.5 * (secs[n / 2 - 1] + secs[n / 2]);
  for (const double s : secs) ts.mean_sec += s;
  ts.mean_sec /= static_cast<double>(n);
  return ts;
}

/// A fully prepared experiment bundle: generated design, timing graph,
/// calculated delays, tuned clock period, and an updated golden engine.
struct Bundle {
  gen::GeneratedDesign gd;
  std::unique_ptr<timing::TimingGraph> graph;
  std::unique_ptr<timing::DelayCalculator> calc;
  timing::ArcDelays delays;
  std::unique_ptr<ref::GoldenSta> sta;
  double gen_sec = 0.0;
  double golden_update_sec = 0.0;      ///< median full golden update_timing
  double golden_update_min_sec = 0.0;  ///< fastest repetition
  int golden_update_reps = 0;          ///< repetitions behind the numbers
};

/// Builds a bundle from a logic-block spec. The golden engine uses its
/// default, exact pruning window (DESIGN.md §6), so reference results stay
/// exact while propagation remains tractable.
/// `update_reps` full golden updates are timed (median + min reported);
/// the default of 1 keeps large-block bundles affordable.
inline Bundle make_bundle(const gen::LogicBlockSpec& spec,
                          double violate_fraction, int update_reps = 1) {
  Bundle b;
  util::Stopwatch sw;
  b.gd = gen::build_logic_block(spec);
  b.graph = std::make_unique<timing::TimingGraph>(*b.gd.design,
                                                  b.gd.constraints.clock_root);
  b.calc = std::make_unique<timing::DelayCalculator>(*b.gd.design, *b.graph);
  b.calc->compute_all(b.delays);
  gen::tune_clock_period(*b.graph, b.gd.constraints, b.delays,
                         violate_fraction);
  b.gen_sec = sw.elapsed_sec();

  b.sta = std::make_unique<ref::GoldenSta>(*b.graph, b.gd.constraints,
                                           b.delays);
  const TimingStats ts =
      time_repeated(update_reps, [&] { b.sta->update_full(); });
  b.golden_update_sec = ts.median_sec;
  b.golden_update_min_sec = ts.min_sec;
  b.golden_update_reps = ts.reps;
  return b;
}

/// Machine-readable benchmark output: named rows of numeric results, each
/// embedding the telemetry snapshot taken when the row was added. write()
/// produces BENCH_<name>.json next to the working directory so CI and
/// notebooks can diff runs without scraping the ASCII tables.
class BenchReport {
 public:
  explicit BenchReport(std::string name) : name_(std::move(name)) {}

  /// Adds one result row. Thread-compatible (call from the main thread).
  void add_row(const std::string& label,
               const std::vector<std::pair<std::string, double>>& values) {
    util::ThreadPool::global().publish_metrics();
    Row row;
    row.label = label;
    row.values = values;
    row.metrics_json =
        telemetry::MetricsRegistry::global().snapshot().to_json();
    rows_.push_back(std::move(row));
  }

  /// Writes BENCH_<name>.json into `dir` ("." by default). Returns false on
  /// I/O failure.
  bool write(const std::string& dir = ".") const {
    const std::string path = dir + "/BENCH_" + name_ + ".json";
    std::ofstream f(path, std::ios::binary);
    if (!f) return false;
    // Provenance header: when/where/how the numbers were produced, so two
    // BENCH_*.json files can be compared with their build context in hand.
    f << "{\n  \"bench\": \"" << telemetry::json_escape(name_)
      << "\",\n  \"generated_at\": \"" << iso8601_utc_now()
      << "\",\n  \"host\": \"" << telemetry::json_escape(host_name())
      << "\",\n  \"build\": {\"compiler\": \""
      << telemetry::json_escape(compiler_id()) << "\", \"flags\": \""
      << telemetry::json_escape(INSTA_BUILD_FLAGS) << "\", \"git\": \""
      << telemetry::json_escape(INSTA_GIT_DESCRIBE)
      << "\"},\n  \"rows\": [";
    for (std::size_t i = 0; i < rows_.size(); ++i) {
      const Row& r = rows_[i];
      f << (i == 0 ? "\n" : ",\n") << "    {\"label\": \""
        << telemetry::json_escape(r.label) << "\"";
      for (const auto& [key, value] : r.values) {
        f << ", \"" << telemetry::json_escape(key)
          << "\": " << telemetry::json_number(value);
      }
      f << ", \"metrics\": " << r.metrics_json << "    }";
    }
    f << "\n  ]\n}\n";
    if (f.good()) {
      std::printf("wrote %s\n", path.c_str());
    }
    return f.good();
  }

 private:
  struct Row {
    std::string label;
    std::vector<std::pair<std::string, double>> values;
    std::string metrics_json;
  };
  std::string name_;
  std::vector<Row> rows_;
};

/// The corner sets of the MCMM benchmark axis (C in {1, 2, 4}): corner 0
/// is the byte-exact default scale set, the others bracket it. Every
/// harness uses this one list so C-corner runs are comparable across
/// bench binaries and bit-identity checks can rebuild the same solo
/// engines.
inline std::vector<core::CornerSpec> mcmm_corners(int c) {
  static const std::vector<core::CornerSpec> all = {
      {"typ", 1.0f, 1.0f},
      {"fast", 0.92f, 0.95f},
      {"slow", 1.08f, 1.05f},
      {"cold", 1.15f, 1.10f},
  };
  return {all.begin(), all.begin() + std::min<std::size_t>(
                                         static_cast<std::size_t>(c),
                                         all.size())};
}

/// Bitwise comparison of one corner of `multi` against a single-corner
/// engine built from the same spec. Returns mismatching endpoint count.
inline std::size_t count_corner_mismatches(const core::Engine& multi,
                                           std::int32_t corner,
                                           const core::Engine& solo) {
  const auto sm = multi.endpoint_slacks(corner);
  const auto ss = solo.endpoint_slacks();
  std::size_t bad = 0;
  for (std::size_t e = 0; e < ss.size(); ++e) {
    const bool fm = std::isfinite(sm[e]);
    const bool fs = std::isfinite(ss[e]);
    if (fm != fs || (fm && sm[e] != ss[e])) ++bad;
  }
  return bad;
}

/// "4M cells, 15M pins" style size string with k/M suffixes.
inline std::string size_str(std::size_t n) {
  char buf[32];
  if (n >= 1000000) {
    std::snprintf(buf, sizeof(buf), "%.1fM", static_cast<double>(n) / 1e6);
  } else if (n >= 1000) {
    std::snprintf(buf, sizeof(buf), "%.0fk", static_cast<double>(n) / 1e3);
  } else {
    std::snprintf(buf, sizeof(buf), "%zu", n);
  }
  return buf;
}

inline void print_header(const char* title) {
  std::printf("\n================================================================\n");
  std::printf("%s\n", title);
  std::printf("================================================================\n");
}

}  // namespace insta::bench
