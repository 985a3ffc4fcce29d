#pragma once

// Shared plumbing of the end-to-end benchmark: run options, the result
// record every workload fills, and the sample statistics the metrics use.

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace insta::e2e {

/// Command-line options of one measured run.
struct RunOptions {
  std::string workload;
  std::uint64_t seed = 1;
  /// Length of the measured phase(s); set-up is not counted against it.
  double seconds = 10.0;
  /// Traced run: record spans, report the per-layer metrics.
  bool trace = false;
  /// Tiny design presets with the same code paths (the ctest smoke run).
  bool smoke = false;
  /// insta_cli binary the service workloads spawn.
  std::string cli;
  /// Scratch directory of this run (design files, sockets, server logs).
  std::string run_dir;
  /// Chrome trace written by a traced run.
  std::string trace_path;
};

/// One correctness gate: its verdict and a human-readable detail.
struct Check {
  std::string name;
  bool pass = false;
  std::string detail;
};

/// Everything one run reports. Metric values are in the unit BENCHMARK.json
/// lists for that name (the names carry it as a suffix).
struct Result {
  std::map<std::string, double> metrics;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<Check> checks;
  /// Sample count behind each latency metric family, for the report.
  std::map<std::string, std::uint64_t> samples;

  void set(const std::string& name, double value) { metrics[name] = value; }
  void check(const std::string& name, bool pass, const std::string& detail) {
    checks.push_back({name, pass, detail});
  }
  [[nodiscard]] bool all_checks_pass() const {
    return std::all_of(checks.begin(), checks.end(),
                       [](const Check& c) { return c.pass; });
  }
};

/// Steady-clock nanoseconds (the one clock every span and latency uses).
inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Linear-interpolated quantile q in [0, 1] of `v` (sorted in place); the
/// same definition as numpy's default. 0 for an empty sample.
inline double quantile(std::vector<double>& v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

inline double median(std::vector<double> v) { return quantile(v, 0.5); }

/// Workload entry points (analysis_workloads.cpp / service_workloads.cpp).
void run_place_refresh(const RunOptions& opt, Result& res);
void run_size_eco(const RunOptions& opt, Result& res);
void run_whatif_serve(const RunOptions& opt, Result& res);
void run_fleet_mixed(const RunOptions& opt, Result& res);

}  // namespace insta::e2e
