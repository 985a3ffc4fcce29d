// bench_e2e — the end-to-end benchmark of the analysis and service paths.
//
//   bench_e2e --workload W --seed S [--seconds T] [--trace 0|1] [--smoke 1]
//             [--out report.json] [--benchmark BENCHMARK.json]
//             [--cli path/to/insta_cli] [--run-dir DIR]
//   bench_e2e --compare A*.json -- B*.json [--benchmark BENCHMARK.json]
//
// Workloads (README.md says why each exists): place_refresh, size_eco,
// whatif_serve, fleet_mixed. --seed drives every generated input (cell
// motion, ECO candidates, request streams, op mix); the design presets are
// fixed. The last stdout line is one JSON object with correct, attempted,
// failed and metrics: every end-to-end metric of BENCHMARK.json, or with
// --trace 1 every per-layer metric (layers a workload does not exercise
// read 0), plus a Chrome trace of the run. The exit status is nonzero when
// any correctness check fails.

#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <exception>
#include <filesystem>
#include <fstream>
#include <map>
#include <string>

#include "common.hpp"
#include "report.hpp"

namespace fs = std::filesystem;

namespace {

using namespace insta::e2e;

int usage() {
  std::fprintf(stderr,
               "usage: bench_e2e --workload W --seed S [--seconds T] "
               "[--trace 0|1] [--smoke 1] [--out report.json]\n"
               "                 [--benchmark BENCHMARK.json] "
               "[--cli insta_cli] [--run-dir DIR]\n"
               "       bench_e2e --compare A.json... -- B.json... "
               "[--benchmark BENCHMARK.json]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc >= 2 && std::strcmp(argv[1], "--compare") == 0) {
    return compare_main(argc, argv);
  }
  std::map<std::string, std::string> args;
  for (int i = 1; i + 1 < argc; i += 2) {
    if (std::strncmp(argv[i], "--", 2) != 0) return usage();
    args[argv[i] + 2] = argv[i + 1];
  }
  if (argc % 2 != 1 || args.count("workload") == 0 || args.count("seed") == 0) {
    return usage();
  }
  const auto arg = [&](const char* key, const std::string& fallback) {
    const auto it = args.find(key);
    return it == args.end() ? fallback : it->second;
  };

  RunOptions opt;
  opt.workload = arg("workload", "");
  try {
    opt.seed = std::stoull(arg("seed", "1"));
    opt.seconds = std::stod(arg("seconds", "10"));
  } catch (const std::exception&) {
    return usage();
  }
  opt.trace = arg("trace", "0") == "1";
  opt.smoke = arg("smoke", "0") == "1";
  if (!(opt.seconds > 0.0 && opt.seconds <= 120.0)) return usage();

  Catalogue cat;
  std::string err;
  if (!load_catalogue(arg("benchmark", "BENCHMARK.json"), cat, err)) {
    std::fprintf(stderr, "bench_e2e: %s\n", err.c_str());
    return 2;
  }
  if (std::find(cat.workloads.begin(), cat.workloads.end(), opt.workload) ==
      cat.workloads.end()) {
    std::fprintf(stderr, "bench_e2e: unknown workload %s\n",
                 opt.workload.c_str());
    return 2;
  }

  // Scratch lives in the build tree next to bin/. The run directory is
  // addressed relative to the working directory so socket paths stay short.
  const fs::path build_dir =
      fs::read_symlink("/proc/self/exe").parent_path().parent_path();
  opt.cli = arg("cli", (build_dir / "bin" / "insta_cli").string());
  opt.run_dir = arg(
      "run-dir",
      fs::relative(build_dir / "run" / std::to_string(::getpid())).string());
  opt.trace_path =
      (build_dir / "traces" /
       (opt.workload + "-seed" + std::to_string(opt.seed) + ".json"))
          .string();
  std::error_code ec;
  fs::create_directories(opt.run_dir, ec);
  if (opt.trace) fs::create_directories(build_dir / "traces", ec);

  Result res;
  try {
    if (opt.workload == "place_refresh") {
      run_place_refresh(opt, res);
    } else if (opt.workload == "size_eco") {
      run_size_eco(opt, res);
    } else if (opt.workload == "whatif_serve") {
      run_whatif_serve(opt, res);
    } else {
      run_fleet_mixed(opt, res);
    }
  } catch (const std::exception& e) {
    res.check("no_exception", false, e.what());
  }

  const std::vector<MetricSpec>& printed =
      opt.trace ? cat.per_layer : cat.end_to_end;
  for (const auto& [name, value] : res.metrics) {
    const auto listed = [&](const std::vector<MetricSpec>& specs) {
      return std::any_of(specs.begin(), specs.end(),
                         [&](const MetricSpec& m) { return m.name == name; });
    };
    if (!listed(cat.end_to_end) && !listed(cat.per_layer)) {
      res.check("metric_" + name, false, "not listed in BENCHMARK.json");
    }
  }
  if (opt.trace) {
    // The end-to-end metrics again, measured with tracing on: the tracing
    // overhead is their difference from an untraced run.
    for (const MetricSpec& m : cat.end_to_end) {
      res.set("traced." + m.name, res.metrics[m.name]);
    }
  } else {
    for (const MetricSpec& m : cat.end_to_end) {
      if (res.metrics.count(m.name) == 0) {
        res.check("metric_" + m.name, false, "not measured");
      }
    }
  }
  const bool correct = res.all_checks_pass();
  for (const Check& c : res.checks) {
    std::printf("check %-28s %s  %s\n", c.name.c_str(),
                c.pass ? "ok  " : "FAIL", c.detail.c_str());
  }
  if (opt.trace) std::printf("trace: %s\n", opt.trace_path.c_str());
  if (args.count("out") != 0) {
    std::ofstream f(args["out"], std::ios::binary);
    f << report_json(opt, res, correct, printed) << "\n";
  }
  if (correct) fs::remove_all(opt.run_dir, ec);
  std::printf("%s\n", result_line(res, correct, printed).c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}
