// bench_e2e --compare A*.json -- B*.json [--benchmark BENCHMARK.json]
//
// Reads run reports (the files --out writes), groups them by workload, and
// prints for every metric each side's median and quartiles. End-to-end metrics get a verdict against
// their bound in BENCHMARK.json; the exit status is 1 when any regresses.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "report.hpp"
#include "telemetry/json.hpp"

namespace insta::e2e {

namespace {

using telemetry::JsonValue;

struct Run {
  std::string workload;
  std::map<std::string, double> metrics;
};

bool read_run(const std::string& path, Run& out) {
  std::ifstream f(path, std::ios::binary);
  if (!f) return false;
  std::ostringstream ss;
  ss << f.rdbuf();
  JsonValue doc;
  std::string err;
  if (!telemetry::json_parse(ss.str(), doc, err)) return false;
  const JsonValue* wl = doc.find("workload");
  if (wl == nullptr || !wl->is_string()) return false;
  out.workload = wl->string;
  const JsonValue* m = doc.find("metrics");
  if (m == nullptr || !m->is_object()) return false;
  for (const auto& [name, v] : m->object) {
    const JsonValue* value = v.find("value");
    if (value != nullptr && value->is_number()) {
      out.metrics[name] = value->number;
    }
  }
  return true;
}

/// Median and quartiles by Python's statistics.quantiles(n=4) (the
/// "exclusive" method), so the numbers match the acceptance arithmetic.
struct Quartiles {
  double q1 = 0, med = 0, q3 = 0;
};

Quartiles quartiles(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  Quartiles q;
  if (v.empty()) return q;
  if (v.size() == 1) {
    q.q1 = q.med = q.q3 = v[0];
    return q;
  }
  const auto ld = static_cast<long>(v.size());
  const long m = ld + 1;
  double out[3];
  for (long i = 1; i < 4; ++i) {
    const long j = std::clamp(i * m / 4, 1L, ld - 1);
    const long delta = i * m - j * 4;
    const double lo = v[static_cast<std::size_t>(j - 1)];
    const double hi = v[static_cast<std::size_t>(j)];
    out[i - 1] = (lo * static_cast<double>(4 - delta) +
                  hi * static_cast<double>(delta)) /
                 4.0;
  }
  q.q1 = out[0];
  q.med = out[1];
  q.q3 = out[2];
  return q;
}

}  // namespace

int compare_main(int argc, char** argv) {
  std::vector<std::string> side[2];
  std::string bench_path = "BENCHMARK.json";
  int s = 0;
  for (int i = 2; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--") {
      s = 1;
    } else if (arg == "--benchmark" && i + 1 < argc) {
      bench_path = argv[++i];
    } else {
      side[s].push_back(arg);
    }
  }
  if (side[0].empty() || side[1].empty()) {
    std::fprintf(stderr,
                 "usage: bench_e2e --compare A.json... -- B.json... "
                 "[--benchmark BENCHMARK.json]\n");
    return 2;
  }
  Catalogue cat;
  std::string err;
  if (!load_catalogue(bench_path, cat, err)) {
    std::fprintf(stderr, "compare: %s\n", err.c_str());
    return 2;
  }

  std::map<std::string, std::vector<Run>> runs[2];
  for (int k = 0; k < 2; ++k) {
    for (const std::string& path : side[k]) {
      Run r;
      if (!read_run(path, r)) {
        std::fprintf(stderr, "compare: %s is not a bench_e2e --out report\n",
                     path.c_str());
        return 2;
      }
      runs[k][r.workload].push_back(std::move(r));
    }
  }

  int regressions = 0;
  for (const auto& [workload, a_runs] : runs[0]) {
    const auto bit = runs[1].find(workload);
    if (bit == runs[1].end()) continue;
    const std::vector<Run>& b_runs = bit->second;
    std::printf("\n%s: %zu runs vs %zu runs\n", workload.c_str(), a_runs.size(),
                b_runs.size());
    std::printf("%-30s %-6s %34s %34s %8s  %s\n", "metric", "unit",
                "A median [q1, q3]", "B median [q1, q3]", "delta", "verdict");
    const auto row = [&](const MetricSpec& spec, bool e2e) {
      std::vector<double> va, vb;
      for (const Run& r : a_runs) {
        const auto it = r.metrics.find(spec.name);
        if (it != r.metrics.end()) va.push_back(it->second);
      }
      for (const Run& r : b_runs) {
        const auto it = r.metrics.find(spec.name);
        if (it != r.metrics.end()) vb.push_back(it->second);
      }
      if (va.empty() || vb.empty()) return;
      const Quartiles qa = quartiles(va);
      const Quartiles qb = quartiles(vb);
      const double delta =
          qa.med != 0.0 ? (qb.med - qa.med) / std::abs(qa.med) : 0.0;
      std::string verdict = "-";
      if (e2e) {
        const double worse = spec.better == "higher" ? -delta : delta;
        const double spread =
            qa.med != 0.0 ? (qa.q3 - qa.q1) / std::abs(qa.med) : 0.0;
        if (worse > spec.bound) {
          verdict = "REGRESSION (bound " + std::to_string(spec.bound) + ")";
          ++regressions;
        } else if (spread > spec.bound) {
          verdict = "unresolved (A spread above bound)";
        } else if (-worse > spread) {
          verdict = "better";
        } else {
          verdict = "within bound";
        }
      }
      char a[64], b[64];
      std::snprintf(a, sizeof(a), "%.6g [%.6g, %.6g]", qa.med, qa.q1, qa.q3);
      std::snprintf(b, sizeof(b), "%.6g [%.6g, %.6g]", qb.med, qb.q1, qb.q3);
      std::printf("%-30s %-6s %34s %34s %+7.2f%%  %s\n", spec.name.c_str(),
                  spec.unit.c_str(), a, b, delta * 100.0, verdict.c_str());
    };
    for (const MetricSpec& m : cat.end_to_end) row(m, true);
    for (const MetricSpec& m : cat.per_layer) row(m, false);
  }
  std::printf("\n%d end-to-end regression(s)\n", regressions);
  return regressions == 0 ? 0 : 1;
}

}  // namespace insta::e2e
