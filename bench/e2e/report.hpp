#pragma once

// BENCHMARK.json's metric catalogue and the run's output documents: the
// one-line result object the benchmark contract reads, and the full report
// (checks and sample counts included) that --out writes and --compare reads.

#include <string>
#include <vector>

#include "common.hpp"

namespace insta::e2e {

struct MetricSpec {
  std::string name;
  std::string unit;
  std::string better;  ///< "lower" | "higher" (end-to-end only)
  double bound = 0.0;  ///< allowed worsening as a share of the median
};

struct Catalogue {
  std::vector<std::string> workloads;
  std::vector<MetricSpec> end_to_end;
  std::vector<MetricSpec> per_layer;
};

/// Parses BENCHMARK.json. False (with `err`) when unreadable or malformed.
bool load_catalogue(const std::string& path, Catalogue& out, std::string& err);

/// {"correct": b, "attempted": n, "failed": n, "metrics": {name: {"value",
/// "unit"}}} over `printed`, in catalogue order.
[[nodiscard]] std::string result_line(const Result& res, bool correct,
                                      const std::vector<MetricSpec>& printed);

/// The result line's members plus workload, seed, seconds, trace, checks and
/// sample counts, as one JSON document.
[[nodiscard]] std::string report_json(const RunOptions& opt, const Result& res,
                                      bool correct,
                                      const std::vector<MetricSpec>& printed);

/// `bench_e2e --compare A... -- B... [--benchmark path]`.
int compare_main(int argc, char** argv);

}  // namespace insta::e2e
