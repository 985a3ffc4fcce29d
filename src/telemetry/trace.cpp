#include "telemetry/trace.hpp"

#include <algorithm>
#include <chrono>
#include <fstream>

#include "telemetry/json.hpp"

namespace insta::telemetry {

namespace {

/// Per-thread nesting depth of live TraceSpans (spans on this thread's
/// stack). Used to reconstruct B/E ordering at export time.
thread_local std::int32_t t_span_depth = 0;

}  // namespace

Tracer& Tracer::global() {
  static Tracer tracer;
  return tracer;
}

std::uint64_t Tracer::now_ns() {
  static const auto epoch = std::chrono::steady_clock::now();
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - epoch)
          .count());
}

Tracer::Ring* Tracer::ring() {
  if (t_ring_ != nullptr) return t_ring_;
  const util::LockGuard lock(mutex_);
  rings_.push_back(std::make_unique<Ring>());
  Ring* r = rings_.back().get();
  r->tid = static_cast<int>(rings_.size());
  {
    // Uncontended (the ring was created one line up) but spans is guarded
    // by the ring lock, and tracer -> ring is the documented nesting.
    const util::LockGuard ring_lock(r->mutex);
    r->spans.reserve(kRingCapacity);
  }
  t_ring_ = r;
  return r;
}

void Tracer::record(const SpanRecord& rec) {
  Ring* r = ring();
  const util::LockGuard lock(r->mutex);
  if (r->spans.size() < kRingCapacity) {
    r->spans.push_back(rec);
  } else {
    r->spans[r->total % kRingCapacity] = rec;
  }
  ++r->total;
}

void Tracer::flow(std::uint64_t id, char phase) {
  if (!enabled()) return;
  SpanRecord rec;
  rec.name = "req";  // flow events bind on (name, id); one shared name
  rec.begin_ns = now_ns();
  rec.end_ns = rec.begin_ns;
  rec.depth = t_span_depth;
  rec.flow_id = id;
  rec.flow_phase = phase;
  record(rec);
}

void Tracer::clear() {
  const util::LockGuard lock(mutex_);
  for (const auto& r : rings_) {
    const util::LockGuard ring_lock(r->mutex);
    r->spans.clear();
    r->total = 0;
  }
}

std::uint64_t Tracer::dropped() const {
  const util::LockGuard lock(mutex_);
  std::uint64_t n = 0;
  for (const auto& r : rings_) {
    const util::LockGuard ring_lock(r->mutex);
    if (r->total > r->spans.size()) n += r->total - r->spans.size();
  }
  return n;
}

namespace {

void append_event(std::string& out, char ph, const char* name, int tid,
                  double ts_us, std::int64_t arg, bool& first) {
  if (!first) out += ",\n";
  first = false;
  out += "    {\"ph\": \"";
  out += ph;
  out += "\", \"pid\": 1, \"tid\": " + std::to_string(tid) +
         ", \"ts\": " + json_number(ts_us) + ", \"name\": \"" +
         json_escape(name) + "\"";
  if (ph == 'B' && arg != kNoTraceArg) {
    out += ", \"args\": {\"v\": " + std::to_string(arg) + "}";
  }
  out += "}";
}

/// One flow event ("s" start / "t" step / "f" finish). Viewers bind the
/// arrow to the slice enclosing ts on this lane.
void append_flow(std::string& out, char ph, int tid, double ts_us,
                 std::uint64_t id, bool& first) {
  if (!first) out += ",\n";
  first = false;
  out += "    {\"ph\": \"";
  out += ph;
  out += "\", \"pid\": 1, \"tid\": " + std::to_string(tid) +
         ", \"ts\": " + json_number(ts_us) +
         ", \"name\": \"req\", \"cat\": \"req\", \"id\": " +
         std::to_string(id);
  if (ph == 'f') out += ", \"bp\": \"e\"";
  out += "}";
}

}  // namespace

std::string Tracer::chrome_trace_json() const {
  // Copy out each ring under its lock, then render without locks held.
  struct ThreadSpans {
    int tid = 0;
    std::vector<SpanRecord> spans;
  };
  std::vector<ThreadSpans> threads;
  {
    const util::LockGuard lock(mutex_);
    threads.reserve(rings_.size());
    for (const auto& r : rings_) {
      const util::LockGuard ring_lock(r->mutex);
      threads.push_back(ThreadSpans{r->tid, r->spans});
    }
  }

  std::string out = "{\"traceEvents\": [\n";
  bool first = true;
  for (auto& th : threads) {
    if (th.spans.empty()) continue;
    // Spans were recorded at destruction (end order). Within one thread
    // RAII guarantees the span family is laminar: two spans either nest or
    // are disjoint. Sorting by (begin asc, depth asc, end desc) recovers
    // the begin order with parents before children, after which a stack
    // walk emits balanced B/E events.
    std::sort(th.spans.begin(), th.spans.end(),
              [](const SpanRecord& a, const SpanRecord& b) {
                if (a.begin_ns != b.begin_ns) return a.begin_ns < b.begin_ns;
                if (a.depth != b.depth) return a.depth < b.depth;
                return a.end_ns > b.end_ns;
              });
    if (!first) out += ",\n";
    first = false;
    out += "    {\"ph\": \"M\", \"pid\": 1, \"tid\": " +
           std::to_string(th.tid) +
           ", \"ts\": 0, \"name\": \"thread_name\", \"args\": {\"name\": \"" +
           (th.tid == 1 ? std::string("main")
                        : "worker-" + std::to_string(th.tid - 1)) +
           "\"}}";
    std::vector<const SpanRecord*> stack;
    for (const SpanRecord& s : th.spans) {
      while (!stack.empty() && stack.back()->end_ns <= s.begin_ns) {
        append_event(out, 'E', stack.back()->name, th.tid,
                     static_cast<double>(stack.back()->end_ns) * 1e-3,
                     kNoTraceArg, first);
        stack.pop_back();
      }
      if (s.flow_phase != 0) {
        // Flow points are instants: they never open a slice, so they do
        // not join the B/E stack.
        append_flow(out, s.flow_phase, th.tid,
                    static_cast<double>(s.begin_ns) * 1e-3, s.flow_id, first);
        continue;
      }
      append_event(out, 'B', s.name, th.tid,
                   static_cast<double>(s.begin_ns) * 1e-3, s.arg, first);
      stack.push_back(&s);
    }
    while (!stack.empty()) {
      append_event(out, 'E', stack.back()->name, th.tid,
                   static_cast<double>(stack.back()->end_ns) * 1e-3,
                   kNoTraceArg, first);
      stack.pop_back();
    }
  }
  out += "\n  ],\n  \"displayTimeUnit\": \"ms\"\n}\n";
  return out;
}

std::string Tracer::spans_json(std::size_t max_spans) const {
  struct Entry {
    SpanRecord rec;
    int tid = 0;
  };
  std::vector<Entry> entries;
  {
    const util::LockGuard lock(mutex_);
    for (const auto& r : rings_) {
      const util::LockGuard ring_lock(r->mutex);
      for (const SpanRecord& s : r->spans) {
        if (s.flow_phase != 0) continue;
        entries.push_back(Entry{s, r->tid});
      }
    }
  }
  std::sort(entries.begin(), entries.end(),
            [](const Entry& a, const Entry& b) {
              return a.rec.begin_ns < b.rec.begin_ns;
            });
  if (entries.size() > max_spans) {
    entries.erase(entries.begin(),
                  entries.end() - static_cast<std::ptrdiff_t>(max_spans));
  }
  std::string out = "{\"dropped\": " + std::to_string(dropped()) +
                    ", \"spans\": [";
  for (std::size_t i = 0; i < entries.size(); ++i) {
    const SpanRecord& s = entries[i].rec;
    out += i == 0 ? "\n" : ",\n";
    out += "  {\"name\": \"" + json_escape(s.name) +
           "\", \"tid\": " + std::to_string(entries[i].tid) +
           ", \"ts_us\": " +
           json_number(static_cast<double>(s.begin_ns) * 1e-3) +
           ", \"dur_us\": " +
           json_number(static_cast<double>(s.end_ns - s.begin_ns) * 1e-3) +
           ", \"depth\": " + std::to_string(s.depth);
    if (s.arg != kNoTraceArg) out += ", \"arg\": " + std::to_string(s.arg);
    out += "}";
  }
  out += entries.empty() ? "]}\n" : "\n]}\n";
  return out;
}

bool Tracer::write_chrome_trace(const std::string& path) const {
  std::ofstream f(path, std::ios::binary);
  if (!f) return false;
  f << chrome_trace_json();
  return static_cast<bool>(f);
}

TraceSpan::TraceSpan(const char* name, std::int64_t arg) {
  Tracer& t = Tracer::global();
  if (!t.enabled()) return;
  active_ = true;
  name_ = name;
  arg_ = arg;
  depth_ = t_span_depth++;
  begin_ns_ = Tracer::now_ns();
}

TraceSpan::~TraceSpan() {
  if (!active_) return;
  --t_span_depth;
  Tracer::SpanRecord rec;
  rec.name = name_;
  rec.begin_ns = begin_ns_;
  rec.end_ns = Tracer::now_ns();
  rec.arg = arg_;
  rec.depth = depth_;
  Tracer::global().record(rec);
}

}  // namespace insta::telemetry
