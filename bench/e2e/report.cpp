#include "report.hpp"

#include <fstream>
#include <sstream>

#include "telemetry/json.hpp"

namespace insta::e2e {

using telemetry::JsonValue;
using telemetry::json_escape;
using telemetry::json_number;

namespace {

std::string str_of(const JsonValue& obj, const char* key) {
  const JsonValue* v = obj.find(key);
  return v != nullptr && v->is_string() ? v->string : "";
}

bool read_metrics(const JsonValue* arr, std::vector<MetricSpec>& out,
                  std::string& err) {
  if (arr == nullptr || !arr->is_array()) {
    err = "metric list missing";
    return false;
  }
  for (const JsonValue& m : arr->array) {
    MetricSpec s;
    s.name = str_of(m, "name");
    s.unit = str_of(m, "unit");
    s.better = str_of(m, "better");
    const JsonValue* b = m.find("bound");
    s.bound = b != nullptr && b->is_number() ? b->number : 0.0;
    if (s.name.empty() || s.unit.empty()) {
      err = "metric without name or unit";
      return false;
    }
    out.push_back(std::move(s));
  }
  return true;
}

std::string metrics_json(const Result& res,
                         const std::vector<MetricSpec>& printed) {
  std::string s = "{";
  for (std::size_t i = 0; i < printed.size(); ++i) {
    const auto it = res.metrics.find(printed[i].name);
    s += (i == 0 ? "\"" : ", \"") + json_escape(printed[i].name) +
         "\": {\"value\": " +
         json_number(it == res.metrics.end() ? 0.0 : it->second) +
         ", \"unit\": \"" + json_escape(printed[i].unit) + "\"}";
  }
  return s + "}";
}

}  // namespace

bool load_catalogue(const std::string& path, Catalogue& out, std::string& err) {
  std::ifstream f(path, std::ios::binary);
  if (!f) {
    err = "cannot read " + path;
    return false;
  }
  std::ostringstream ss;
  ss << f.rdbuf();
  JsonValue doc;
  if (!telemetry::json_parse(ss.str(), doc, err)) return false;
  const JsonValue* wl = doc.find("workloads");
  if (wl == nullptr || !wl->is_array()) {
    err = "workloads missing";
    return false;
  }
  for (const JsonValue& w : wl->array) {
    out.workloads.push_back(str_of(w, "name"));
  }
  return read_metrics(doc.find("end_to_end"), out.end_to_end, err) &&
         read_metrics(doc.find("per_layer"), out.per_layer, err);
}

std::string result_line(const Result& res, bool correct,
                        const std::vector<MetricSpec>& printed) {
  return std::string("{\"correct\": ") + (correct ? "true" : "false") +
         ", \"attempted\": " + std::to_string(res.attempted) +
         ", \"failed\": " + std::to_string(res.failed) +
         ", \"metrics\": " + metrics_json(res, printed) + "}";
}

std::string report_json(const RunOptions& opt, const Result& res, bool correct,
                        const std::vector<MetricSpec>& printed) {
  std::string s = "{\"workload\": \"" + json_escape(opt.workload) +
                  "\", \"seed\": " + std::to_string(opt.seed) +
                  ", \"seconds\": " + json_number(opt.seconds) +
                  ", \"trace\": " + (opt.trace ? "true" : "false") +
                  ", \"correct\": " + (correct ? "true" : "false") +
                  ", \"attempted\": " + std::to_string(res.attempted) +
                  ", \"failed\": " + std::to_string(res.failed) +
                  ", \"metrics\": " + metrics_json(res, printed) +
                  ", \"checks\": {";
  for (std::size_t i = 0; i < res.checks.size(); ++i) {
    const Check& c = res.checks[i];
    s += (i == 0 ? "\"" : ", \"") + json_escape(c.name) +
         "\": {\"pass\": " + (c.pass ? "true" : "false") + ", \"detail\": \"" +
         json_escape(c.detail) + "\"}";
  }
  s += "}, \"samples\": {";
  bool first = true;
  for (const auto& [name, n] : res.samples) {
    s += (first ? "\"" : ", \"") + json_escape(name) +
         "\": " + std::to_string(n);
    first = false;
  }
  if (opt.trace) {
    s += "}, \"trace_file\": \"" + json_escape(opt.trace_path) + "\"}";
  } else {
    s += "}}";
  }
  return s;
}

}  // namespace insta::e2e
