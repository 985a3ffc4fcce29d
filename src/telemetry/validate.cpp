#include "telemetry/validate.hpp"

#include <cmath>
#include <limits>
#include <map>
#include <utility>

#include "telemetry/json.hpp"

namespace insta::telemetry {

namespace {

bool is_nonneg_integer(const JsonValue& v) {
  return v.is_number() && v.number >= 0.0 && v.number == std::floor(v.number);
}

}  // namespace

ValidationResult validate_chrome_trace(std::string_view text,
                                       std::size_t* num_events) {
  ValidationResult res;
  if (num_events != nullptr) *num_events = 0;

  JsonValue doc;
  std::string error;
  if (!json_parse(text, doc, error)) {
    res.fail("trace is not valid JSON: " + error);
    return res;
  }
  const JsonValue* events = nullptr;
  if (doc.is_array()) {
    events = &doc;  // the JSON-array flavor of the format
  } else if (doc.is_object()) {
    events = doc.find("traceEvents");
  }
  if (events == nullptr || !events->is_array()) {
    res.fail("document has no traceEvents array");
    return res;
  }
  if (num_events != nullptr) *num_events = events->array.size();

  struct Lane {
    std::vector<std::string> stack;  ///< open span names
    double last_ts = -1.0;
  };
  std::map<std::pair<double, double>, Lane> lanes;

  std::size_t idx = 0;
  for (const JsonValue& ev : events->array) {
    const std::string where = "event " + std::to_string(idx++);
    if (!ev.is_object()) {
      res.fail(where + ": not an object");
      continue;
    }
    const JsonValue* ph = ev.find("ph");
    const JsonValue* pid = ev.find("pid");
    const JsonValue* tid = ev.find("tid");
    const JsonValue* ts = ev.find("ts");
    const JsonValue* name = ev.find("name");
    if (ph == nullptr || !ph->is_string() || ph->string.size() != 1) {
      res.fail(where + ": missing or malformed ph");
      continue;
    }
    if (pid == nullptr || !pid->is_number() || tid == nullptr ||
        !tid->is_number()) {
      res.fail(where + ": missing pid/tid");
      continue;
    }
    if (name == nullptr || !name->is_string()) {
      res.fail(where + ": missing name");
      continue;
    }
    const char kind = ph->string[0];
    if (kind == 'M') continue;  // metadata events carry no timestamp order
    if (ts == nullptr || !ts->is_number() || ts->number < 0.0) {
      res.fail(where + ": missing or negative ts");
      continue;
    }
    Lane& lane = lanes[{pid->number, tid->number}];
    if (ts->number < lane.last_ts) {
      res.fail(where + ": ts decreases within its (pid, tid) lane");
    }
    lane.last_ts = ts->number;
    if (kind == 'B') {
      lane.stack.push_back(name->string);
    } else if (kind == 'E') {
      if (lane.stack.empty()) {
        res.fail(where + ": E event with no open B span");
      } else {
        if (lane.stack.back() != name->string) {
          res.fail(where + ": E name '" + name->string +
                   "' does not match open span '" + lane.stack.back() + "'");
        }
        lane.stack.pop_back();
      }
    } else if (kind == 's' || kind == 't' || kind == 'f') {
      // Flow events: bound to the enclosing slice at ts, keyed by id.
      const JsonValue* id = ev.find("id");
      if (id == nullptr || !id->is_number() ||
          id->number != std::floor(id->number)) {
        res.fail(where + ": flow event without an integral id");
      }
    } else if (kind != 'X' && kind != 'i' && kind != 'C') {
      res.fail(where + ": unsupported ph '" + ph->string + "'");
    }
  }
  for (const auto& [key, lane] : lanes) {
    if (!lane.stack.empty()) {
      res.fail("lane tid " + json_number(key.second) + " has " +
               std::to_string(lane.stack.size()) +
               " unclosed span(s), first: '" + lane.stack.front() + "'");
    }
  }
  return res;
}

ValidationResult validate_metrics_json(std::string_view text) {
  ValidationResult res;

  JsonValue doc;
  std::string error;
  if (!json_parse(text, doc, error)) {
    res.fail("metrics file is not valid JSON: " + error);
    return res;
  }
  if (!doc.is_object()) {
    res.fail("top level is not an object");
    return res;
  }
  const JsonValue* counters = doc.find("counters");
  const JsonValue* gauges = doc.find("gauges");
  const JsonValue* histograms = doc.find("histograms");
  if (counters == nullptr || !counters->is_object()) {
    res.fail("missing counters object");
  } else {
    for (const auto& [name, v] : counters->object) {
      if (!is_nonneg_integer(v)) {
        res.fail("counter '" + name + "' is not a non-negative integer");
      }
    }
  }
  if (gauges == nullptr || !gauges->is_object()) {
    res.fail("missing gauges object");
  } else {
    for (const auto& [name, v] : gauges->object) {
      if (!v.is_number() && v.type != JsonValue::Type::kNull) {
        res.fail("gauge '" + name + "' is not a number");
      }
    }
  }
  if (histograms == nullptr || !histograms->is_object()) {
    res.fail("missing histograms object");
    return res;
  }
  for (const auto& [name, h] : histograms->object) {
    const std::string where = "histogram '" + name + "'";
    if (!h.is_object()) {
      res.fail(where + ": not an object");
      continue;
    }
    const JsonValue* count = h.find("count");
    const JsonValue* sum = h.find("sum");
    const JsonValue* bounds = h.find("bounds");
    const JsonValue* buckets = h.find("buckets");
    if (count == nullptr || !is_nonneg_integer(*count)) {
      res.fail(where + ": missing or malformed count");
      continue;
    }
    if (sum == nullptr ||
        (!sum->is_number() && sum->type != JsonValue::Type::kNull)) {
      res.fail(where + ": missing sum");
    }
    if (bounds == nullptr || !bounds->is_array() || buckets == nullptr ||
        !buckets->is_array()) {
      res.fail(where + ": missing bounds/buckets arrays");
      continue;
    }
    if (buckets->array.size() != bounds->array.size() + 1) {
      res.fail(where + ": buckets.size() != bounds.size() + 1");
    }
    double prev = -std::numeric_limits<double>::infinity();
    for (const JsonValue& b : bounds->array) {
      if (!b.is_number() || b.number <= prev) {
        res.fail(where + ": bounds not strictly ascending");
        break;
      }
      prev = b.number;
    }
    double total = 0.0;
    bool buckets_ok = true;
    for (const JsonValue& b : buckets->array) {
      if (!is_nonneg_integer(b)) {
        res.fail(where + ": bucket is not a non-negative integer");
        buckets_ok = false;
        break;
      }
      total += b.number;
    }
    if (buckets_ok && total != count->number) {
      res.fail(where + ": count does not equal the sum of buckets");
    }
    // Percentiles are optional (older snapshots lack them) but must be
    // ordered numbers when present.
    double prev_p = -std::numeric_limits<double>::infinity();
    for (const char* key : {"p50", "p95", "p99"}) {
      const JsonValue* p = h.find(key);
      if (p == nullptr) continue;
      if (!p->is_number()) {
        res.fail(where + ": " + key + " is not a number");
        continue;
      }
      if (p->number < prev_p) {
        res.fail(where + ": percentiles are not non-decreasing");
      }
      prev_p = p->number;
    }
  }
  return res;
}

namespace {

/// One SlackSummary object of the whatif schema.
void check_summary(const JsonValue& v, const std::string& where,
                   ValidationResult& res) {
  if (!v.is_object()) {
    res.fail(where + ": not an object");
    return;
  }
  const JsonValue* tns = v.find("tns");
  const JsonValue* wns = v.find("wns");
  const JsonValue* violations = v.find("violations");
  if (tns == nullptr || !tns->is_number()) {
    res.fail(where + ": missing or malformed tns");
  } else if (tns->number > 0.0) {
    res.fail(where + ": tns is positive (must be a sum of negative slacks)");
  }
  if (wns == nullptr || !wns->is_number()) {
    res.fail(where + ": missing or malformed wns");
  }
  if (violations == nullptr || !is_nonneg_integer(*violations)) {
    res.fail(where + ": missing or malformed violations");
  }
}

}  // namespace

ValidationResult validate_whatif_json(std::string_view text,
                                      std::size_t* num_scenarios) {
  ValidationResult res;
  if (num_scenarios != nullptr) *num_scenarios = 0;

  JsonValue doc;
  std::string error;
  if (!json_parse(text, doc, error)) {
    res.fail("whatif file is not valid JSON: " + error);
    return res;
  }
  if (!doc.is_object()) {
    res.fail("top level is not an object");
    return res;
  }
  if (const JsonValue* gen = doc.find("generation");
      gen == nullptr || !is_nonneg_integer(*gen)) {
    res.fail("missing or malformed generation stamp");
  }
  // The corner-set stamp ties per-corner summaries to the engine setup
  // that produced them; its length bounds every *_by_corner array below.
  std::size_t num_corners = 0;
  const JsonValue* corners = doc.find("corners");
  if (corners == nullptr || !corners->is_array()) {
    res.fail("missing corners array");
  } else {
    num_corners = corners->array.size();
    if (num_corners == 0) res.fail("corners array is empty");
    std::size_t cidx = 0;
    for (const JsonValue& c : corners->array) {
      const std::string cw = "corner " + std::to_string(cidx++);
      if (!c.is_object()) {
        res.fail(cw + ": not an object");
        continue;
      }
      const JsonValue* name = c.find("name");
      if (name == nullptr || !name->is_string() || name->string.empty()) {
        res.fail(cw + ": missing or empty name");
      }
      const JsonValue* ds = c.find("delay_scale");
      if (ds == nullptr || !ds->is_number() || !(ds->number > 0.0)) {
        res.fail(cw + ": delay_scale is not a finite positive number");
      }
      const JsonValue* ss = c.find("sigma_scale");
      if (ss == nullptr || !ss->is_number() || !(ss->number > 0.0)) {
        res.fail(cw + ": sigma_scale is not a finite positive number");
      }
    }
  }
  const JsonValue* scenarios = doc.find("scenarios");
  if (scenarios == nullptr || !scenarios->is_array()) {
    res.fail("missing scenarios array");
    return res;
  }
  if (num_scenarios != nullptr) *num_scenarios = scenarios->array.size();

  std::size_t idx = 0;
  for (const JsonValue& s : scenarios->array) {
    const std::string where = "scenario " + std::to_string(idx++);
    if (!s.is_object()) {
      res.fail(where + ": not an object");
      continue;
    }
    const JsonValue* label = s.find("label");
    if (label == nullptr || !label->is_string()) {
      res.fail(where + ": missing or malformed label");
    }
    const JsonValue* setup = s.find("setup");
    if (setup == nullptr) {
      res.fail(where + ": missing setup summary");
    } else {
      check_summary(*setup, where + ".setup", res);
    }
    if (const JsonValue* hold = s.find("hold"); hold != nullptr) {
      check_summary(*hold, where + ".hold", res);
    }
    for (const char* key : {"setup_by_corner", "hold_by_corner"}) {
      const JsonValue* per = s.find(key);
      if (per == nullptr) continue;
      if (!per->is_array()) {
        res.fail(where + "." + key + ": not an array");
        continue;
      }
      if (num_corners != 0 && per->array.size() != num_corners) {
        res.fail(where + "." + key + ": has " +
                 std::to_string(per->array.size()) + " entries, expected " +
                 std::to_string(num_corners) + " (one per corner)");
      }
      std::size_t pc = 0;
      for (const JsonValue& v : per->array) {
        check_summary(v, where + "." + key + "[" + std::to_string(pc++) + "]",
                      res);
      }
    }
    for (const char* key : {"num_deltas", "frontier_pins",
                            "early_terminations", "endpoints_evaluated",
                            "overlay_bytes"}) {
      const JsonValue* v = s.find(key);
      if (v == nullptr || !is_nonneg_integer(*v)) {
        res.fail(where + ": missing or malformed " + key);
      }
    }
  }
  return res;
}

ValidationResult validate_flightrec_json(std::string_view text,
                                         std::size_t* num_events) {
  ValidationResult res;
  if (num_events != nullptr) *num_events = 0;

  JsonValue doc;
  std::string error;
  if (!json_parse(text, doc, error)) {
    res.fail("flight-recorder dump is not valid JSON: " + error);
    return res;
  }
  if (!doc.is_object()) {
    res.fail("top level is not an object");
    return res;
  }
  const JsonValue* total = doc.find("total");
  if (total == nullptr || !is_nonneg_integer(*total)) {
    res.fail("missing or malformed total");
  }
  const JsonValue* events = doc.find("events");
  if (events == nullptr || !events->is_array()) {
    res.fail("missing events array");
    return res;
  }
  if (num_events != nullptr) *num_events = events->array.size();

  std::size_t idx = 0;
  for (const JsonValue& e : events->array) {
    const std::string where = "event " + std::to_string(idx++);
    if (!e.is_object()) {
      res.fail(where + ": not an object");
      continue;
    }
    // No monotonicity check on ts_us: events are in ticket (claim) order,
    // and each writer stamps its event before it claims a ticket (the serve
    // layer's admit stamp even precedes parsing), so a later ticket may
    // legitimately carry an earlier timestamp.
    const JsonValue* ts = e.find("ts_us");
    if (ts == nullptr || !ts->is_number() || ts->number < 0.0) {
      res.fail(where + ": missing or negative ts_us");
    }
    const JsonValue* type = e.find("type");
    bool known = false;
    if (type != nullptr && type->is_string()) {
      for (const char* t :
           {"admit", "enqueue", "batch", "eval", "reply", "shed"}) {
        if (type->string == t) known = true;
      }
    }
    if (!known) res.fail(where + ": missing or unknown type");
    const JsonValue* id = e.find("id");
    if (id == nullptr || !id->is_number() ||
        id->number != std::floor(id->number)) {
      res.fail(where + ": missing or malformed id");
    }
    for (const char* key : {"generation", "detail"}) {
      const JsonValue* v = e.find(key);
      if (v == nullptr || !is_nonneg_integer(*v)) {
        res.fail(where + ": missing or malformed " + key);
      }
    }
  }
  return res;
}

ValidationResult validate_serve_report(std::string_view text) {
  ValidationResult res;

  JsonValue doc;
  std::string error;
  if (!json_parse(text, doc, error)) {
    res.fail("serve report is not valid JSON: " + error);
    return res;
  }
  if (!doc.is_object()) {
    res.fail("top level is not an object");
    return res;
  }
  for (const char* key : {"clients", "requests_per_client", "ok", "shed",
                          "rejected", "failed", "commits"}) {
    const JsonValue* v = doc.find(key);
    if (v == nullptr || !is_nonneg_integer(*v)) {
      res.fail(std::string("missing or malformed ") + key);
    }
  }
  for (const char* key : {"wall_sec", "qps"}) {
    const JsonValue* v = doc.find(key);
    if (v == nullptr || !v->is_number() || v->number < 0.0) {
      res.fail(std::string("missing or negative ") + key);
    }
  }
  const JsonValue* latency = doc.find("latency_ms");
  if (latency == nullptr || !latency->is_object()) {
    res.fail("missing latency_ms object");
    return res;
  }
  double prev = 0.0;
  for (const char* key : {"p50", "p95", "p99", "max"}) {
    const JsonValue* v = latency->find(key);
    if (v == nullptr || !v->is_number() || v->number < 0.0) {
      res.fail(std::string("latency_ms: missing or negative ") + key);
      continue;
    }
    if (v->number < prev) {
      res.fail("latency_ms: percentiles are not non-decreasing");
    }
    prev = v->number;
  }
  return res;
}

}  // namespace insta::telemetry
