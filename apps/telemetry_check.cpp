// telemetry_check — structural validator for the JSON artifacts the
// telemetry subsystem emits. CI runs it against the files produced by
// `insta_cli ... --metrics-json m.json --trace t.json --flightrec-json
// f.json` and `insta_cli client --load --out report.json`.
//
//   telemetry_check [--trace t.json] [--metrics m.json] [--whatif w.json]
//                   [--flightrec f.json] [--serve-report r.json]
//
// Exit 0 when every given file validates, 1 on any violation (each is
// printed), 2 on usage/IO errors.

#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>

#include "telemetry/validate.hpp"

namespace {

constexpr const char* kUsage =
    "usage: telemetry_check [--trace t.json] [--metrics m.json] "
    "[--whatif w.json] [--flightrec f.json] [--serve-report r.json]\n";

bool read_file(const std::string& path, std::string& out) {
  std::ifstream f(path, std::ios::binary);
  if (!f) return false;
  std::ostringstream ss;
  ss << f.rdbuf();
  out = ss.str();
  return f.good() || f.eof();
}

int report(const char* kind, const std::string& path,
           const insta::telemetry::ValidationResult& r, std::size_t items,
           const char* noun = "events") {
  if (r.ok) {
    if (items > 0) {
      std::printf("%s %s: OK (%zu %s)\n", kind, path.c_str(), items, noun);
    } else {
      std::printf("%s %s: OK\n", kind, path.c_str());
    }
    return 0;
  }
  for (const std::string& e : r.errors) {
    std::fprintf(stderr, "%s %s: %s\n", kind, path.c_str(), e.c_str());
  }
  return 1;
}

}  // namespace

int main(int argc, char** argv) {
  int rc = 0;
  bool did_anything = false;
  for (int i = 1; i < argc; ++i) {
    const bool is_trace = std::strcmp(argv[i], "--trace") == 0;
    const bool is_metrics = std::strcmp(argv[i], "--metrics") == 0;
    const bool is_whatif = std::strcmp(argv[i], "--whatif") == 0;
    const bool is_flightrec = std::strcmp(argv[i], "--flightrec") == 0;
    const bool is_report = std::strcmp(argv[i], "--serve-report") == 0;
    if ((!is_trace && !is_metrics && !is_whatif && !is_flightrec &&
         !is_report) ||
        i + 1 >= argc) {
      std::fprintf(stderr, "%s", kUsage);
      return 2;
    }
    const std::string path = argv[++i];
    std::string text;
    if (!read_file(path, text)) {
      std::fprintf(stderr, "telemetry_check: cannot read %s\n", path.c_str());
      return 2;
    }
    did_anything = true;
    if (is_trace) {
      std::size_t events = 0;
      const insta::telemetry::ValidationResult r =
          insta::telemetry::validate_chrome_trace(text, &events);
      rc |= report("trace", path, r, events);
    } else if (is_whatif) {
      std::size_t scenarios = 0;
      const insta::telemetry::ValidationResult r =
          insta::telemetry::validate_whatif_json(text, &scenarios);
      rc |= report("whatif", path, r, scenarios, "scenarios");
    } else if (is_flightrec) {
      std::size_t events = 0;
      const insta::telemetry::ValidationResult r =
          insta::telemetry::validate_flightrec_json(text, &events);
      rc |= report("flightrec", path, r, events);
    } else if (is_report) {
      rc |= report("serve-report", path,
                   insta::telemetry::validate_serve_report(text), 0);
    } else {
      rc |= report("metrics", path,
                   insta::telemetry::validate_metrics_json(text), 0);
    }
  }
  if (!did_anything) {
    std::fprintf(stderr, "%s", kUsage);
    return 2;
  }
  return rc;
}
