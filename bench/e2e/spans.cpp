#include "spans.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>

#include "common.hpp"
#include "telemetry/json.hpp"

namespace insta::e2e {

Spans::Scope::Scope(Spans& spans, const char* name) : spans_(&spans) {
  if (!spans.enabled_) return;
  index_ = static_cast<std::int32_t>(spans.spans_.size());
  Span s;
  s.name = name;
  s.start_ns = now_ns();
  s.parent = spans.open_.empty() ? -1 : spans.open_.back();
  spans.spans_.push_back(std::move(s));
  spans.open_.push_back(index_);
}

Spans::Scope::~Scope() {
  if (index_ < 0) return;
  spans_->spans_[static_cast<std::size_t>(index_)].end_ns = now_ns();
  spans_->open_.pop_back();
}

std::int32_t Spans::add(std::string name, std::int64_t start_ns,
                        std::int64_t end_ns, std::int32_t parent,
                        std::uint64_t req, std::int32_t track) {
  if (!enabled_) return -1;
  spans_.push_back({std::move(name), start_ns, end_ns, parent, req, track});
  return static_cast<std::int32_t>(spans_.size() - 1);
}

std::int32_t Spans::root_of(std::int32_t i) const {
  while (spans_[static_cast<std::size_t>(i)].parent >= 0) {
    i = spans_[static_cast<std::size_t>(i)].parent;
  }
  return i;
}

Spans::Breakdown Spans::breakdown(const std::string& root) const {
  std::vector<double> child_ms(spans_.size(), 0.0);
  for (const Span& s : spans_) {
    if (s.parent >= 0) {
      child_ms[static_cast<std::size_t>(s.parent)] +=
          static_cast<double>(s.end_ns - s.start_ns) * 1e-6;
    }
  }
  Breakdown b;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    if (spans_[static_cast<std::size_t>(root_of(static_cast<std::int32_t>(i)))]
            .name != root) {
      continue;
    }
    const double dur = static_cast<double>(s.end_ns - s.start_ns) * 1e-6;
    const double self = dur - child_ms[i];
    b.self_ms[s.name] += std::max(0.0, self);
    b.overrun_ms += std::max(0.0, -self);
    if (s.parent < 0) ++b.roots;
  }
  return b;
}

bool Spans::write_chrome(const std::string& path) const {
  std::ofstream f(path, std::ios::binary);
  if (!f) return false;
  std::int64_t t0 = 0;
  if (!spans_.empty()) {
    t0 = std::min_element(spans_.begin(), spans_.end(),
                          [](const Span& a, const Span& b) {
                            return a.start_ns < b.start_ns;
                          })
             ->start_ns;
  }
  f << "{\"displayTimeUnit\": \"ms\", \"traceEvents\": [";
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    const std::string layer = s.name.substr(0, s.name.find('.'));
    f << (i == 0 ? "\n" : ",\n") << "{\"name\": \""
      << telemetry::json_escape(s.name) << "\", \"cat\": \""
      << telemetry::json_escape(layer) << "\", \"ph\": \"X\", \"ts\": "
      << telemetry::json_number(static_cast<double>(s.start_ns - t0) * 1e-3)
      << ", \"dur\": "
      << telemetry::json_number(static_cast<double>(s.end_ns - s.start_ns) *
                                1e-3)
      << ", \"pid\": 1, \"tid\": " << s.track << ", \"args\": {\"span\": " << i
      << ", \"parent\": " << s.parent << ", \"req\": " << s.req << "}}";
  }
  f << "\n]}\n";
  return f.good();
}

void report_setup_layers(const Spans& spans, Result& res) {
  const Spans::Breakdown b = spans.breakdown("bench.setup");
  const double n = static_cast<double>(std::max<std::size_t>(1, b.roots));
  const auto per_setup_s = [&](const char* span) {
    const auto it = b.self_ms.find(span);
    return it == b.self_ms.end() ? 0.0 : it->second / n * 1e-3;
  };
  res.set("gen.build_s", per_setup_s("gen.build"));
  res.set("io.load_s", per_setup_s("io.load"));
  res.set("timing.delay_calc_s", per_setup_s("timing.delay_calc"));
  res.set("ref.golden_s", per_setup_s("ref.golden"));
  res.set("core.init_s", per_setup_s("core.init"));
  res.set("core.first_forward_s", per_setup_s("core.first_forward"));
  res.set("setup.unaccounted_s", per_setup_s("bench.setup"));
}

void check_layers_sum(const Spans& spans, const std::string& root,
                      double timed_ms, Result& res) {
  const Spans::Breakdown b = spans.breakdown(root);
  double sum = 0.0;
  for (const auto& [name, ms] : b.self_ms) sum += ms;
  const double err = timed_ms > 0.0 ? std::abs(sum - timed_ms) / timed_ms : 1.0;
  char detail[192];
  std::snprintf(detail, sizeof(detail),
                "%s: layers + unaccounted = %.3f ms vs %.3f ms timed "
                "(%.3f%%), overrun %.3f ms",
                root.c_str(), sum, timed_ms, err * 100.0, b.overrun_ms);
  res.check("trace_layers_sum_to_wall", err <= 0.01 && b.overrun_ms == 0.0,
            detail);
}

void report_op_layers(const Spans& spans, const std::string& root,
                      const std::vector<std::string>& layers, double timed_ms,
                      Result& res) {
  const Spans::Breakdown b = spans.breakdown(root);
  const double n = static_cast<double>(std::max<std::size_t>(1, b.roots));
  const auto per_op = [&](const std::string& span) {
    const auto it = b.self_ms.find(span);
    return it == b.self_ms.end() ? 0.0 : it->second / n;
  };
  for (const std::string& layer : layers) res.set(layer + "_ms", per_op(layer));
  res.set("op.unaccounted_ms", per_op(root));
  check_layers_sum(spans, root, timed_ms, res);
}

}  // namespace insta::e2e
