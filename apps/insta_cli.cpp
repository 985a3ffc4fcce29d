// insta_cli — command-line front end to the library.
//
//   insta_cli generate --out d.inet [--gates N] [--ffs N] [--seed S]
//                      [--violate F]        generate + tune + save a design
//   insta_cli report --in d.inet [--paths N] [--hold] [--topk K]
//                    [--corner list]         golden + INSTA timing summary
//   insta_cli size --in d.inet --out o.inet [--method insta|baseline]
//                                            run a sizer and save the result
//   insta_cli buffer --in d.inet --out o.inet
//                                            run INSTA-Buffer and save
//   insta_cli lint --in d.inet [--max-reports N] [--strict 1] [--audit 1]
//                                            static design/graph checks;
//                                            exit 1 on errors (--strict:
//                                            also on warnings; --audit: run
//                                            the engines and audit Top-K
//                                            invariants post-propagation)
//   insta_cli profile [--preset tiny|block-1..5|fig7] [--iters N]
//                     [--topk K] [--resizes N] [--corner list]
//                                            timed end-to-end run with a
//                                            per-phase breakdown table
//   insta_cli whatif --in d.inet [--scenarios s.json | --sample N]
//                    [--seed S] [--hold 1] [--topk K] [--corner list]
//                    [--out results.json]
//                                            batch-evaluate what-if delta
//                                            scenarios without mutating the
//                                            engine; prints one summary row
//                                            per scenario. The scenarios
//                                            file is {"scenarios": [{"label":
//                                            ..., "deltas": [{"arc": N,
//                                            "mu": [r, f], "sigma": [r, f]}
//                                            ...]} ...]} (or a top-level
//                                            array); without --scenarios,
//                                            --sample N random resizes are
//                                            evaluated instead
//   insta_cli serve --in d.inet [--socket /path.sock | --host H --port P]
//                   [--hold 1] [--topk K] [--corner list]
//                   [--batch-window-us U]
//                   [--max-batch N] [--max-queue N] [--max-inflight N]
//                   [--max-sessions N] [--max-connections N] [--endpoints 1]
//                   [--max-seconds S] [--slow-us U]
//                   [--cache-entries N] [--delta-log N]
//                   [--replica-of <unix:/path | host:port>] [--poll-ms M]
//                   [--bootstrap-seconds S]
//                                            run the timing-query server
//                                            (newline-delimited JSON over a
//                                            Unix or TCP socket) until a
//                                            client sends {"op":"shutdown"}
//                                            or --max-seconds elapses;
//                                            --slow-us logs every request
//                                            slower than U microseconds
//                                            with its server_us breakdown.
//                                            --replica-of makes this server
//                                            a read-only replica converging
//                                            onto the given writer (same
//                                            --in design) via delta
//                                            replication; --poll-ms sets the
//                                            catch-up cadence
//   insta_cli top --connect <unix:/path | host:port> [--interval-sec S]
//                 [--iters N]
//                                            live serve dashboard: polls the
//                                            stats op and prints q/s, shed,
//                                            queue depth, open sessions and
//                                            what-if latency percentiles
//                                            once per interval (N polls,
//                                            0 = until the server goes away)
//   insta_cli client --connect <unix:/path | host:port> [modes...]
//                                            client, verifier and load
//                                            generator for `serve`. Modes
//                                            run left to right in one call:
//     --script f.ndjson                      send each request line, print
//                                            each reply
//     --verify 1 --in d.inet [--hold 1] [--topk K] [--samples N] [--seed S]
//                                            load the same design
//                                            in-process, replay identical
//                                            summary/endpoints/whatif
//                                            queries over the wire, and
//                                            require bit-exact agreement
//     --load 1 [--clients N] [--requests M] [--deltas D] [--seed S]
//              [--edit 1] [--out report.json]
//                                            closed-loop mixed read/what-if
//                                            load from N connections (plus
//                                            one edit commit with --edit);
//                                            prints queries/sec and latency
//                                            percentiles
//     --commit N --in d.inet [--deltas D] [--seed S]
//                                            send N edit commits built from
//                                            random design changelists
//     --compare <unix:/path | host:port> [--in d.inet] [--timeout-sec T]
//               [--samples N] [--seed S]
//                                            wait until both servers report
//                                            one generation, then require
//                                            byte-identical result payloads
//                                            for identical requests
//     --shutdown 1                           ask the server to shut down
//                                            Exit 1 on any mismatch or
//                                            failure, 2 on usage errors.
//   insta_cli selftest                       end-to-end smoke test (tmpfile)
//
// Corners: report/profile/whatif/serve accept --corner with a
// comma-separated analysis-corner list, each entry
// name[:delay_scale[:sigma_scale]] (e.g.
// --corner typ,fast:0.9:0.95,slow:1.12:1.05); all corners propagate in one
// engine and reports show the cross-corner merged view plus per-corner
// breakdowns. Without the flag the engine runs its single default corner.
//
// Global options (every subcommand):
//   --metrics-json <path>   write the telemetry metrics snapshot on exit
//   --trace <path>          record and write a Chrome trace_event JSON
//   --flightrec-json <path> write the flight-recorder event dump on exit
//   --log-level <level>     debug|info|warn|error|off (overrides
//                           INSTA_LOG_LEVEL)

#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <initializer_list>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "analysis/engine_audit.hpp"
#include "util/mutex.hpp"
#include "analysis/linter.hpp"
#include "analysis/rules.hpp"
#include "core/engine.hpp"
#include "core/scenario_batch.hpp"
#include "gen/changelist.hpp"
#include "gen/logic_block.hpp"
#include "gen/presets.hpp"
#include "gen/tune.hpp"
#include "io/design_io.hpp"
#include "ref/golden_sta.hpp"
#include "ref/report.hpp"
#include "replica/replica.hpp"
#include "serve/client.hpp"
#include "serve/protocol.hpp"
#include "serve/server.hpp"
#include "serve/service.hpp"
#include "size/baseline_sizer.hpp"
#include "size/insta_buffer.hpp"
#include "size/insta_size.hpp"
#include "telemetry/flight_recorder.hpp"
#include "telemetry/json.hpp"
#include "telemetry/telemetry.hpp"
#include "telemetry/validate.hpp"
#include "timing/delay_calc.hpp"
#include "util/check.hpp"
#include "util/log.hpp"
#include "util/stats.hpp"
#include "util/table.hpp"
#include "util/thread_pool.hpp"
#include "util/timer.hpp"

namespace {

using namespace insta;

/// Minimal --key value argument parser.
class Args {
 public:
  Args(int argc, char** argv, int first) {
    for (int i = first; i < argc; ++i) {
      std::string key = argv[i];
      util::check(key.rfind("--", 0) == 0, "expected --option, got " + key);
      util::check(i + 1 < argc, "missing value for " + key);
      values_[key.substr(2)] = argv[++i];
    }
  }
  [[nodiscard]] std::string get(const std::string& key,
                                const std::string& fallback) const {
    const auto it = values_.find(key);
    return it == values_.end() ? fallback : it->second;
  }
  [[nodiscard]] double get_num(const std::string& key, double fallback) const {
    const auto it = values_.find(key);
    return it == values_.end() ? fallback : std::stod(it->second);
  }
  [[nodiscard]] bool has(const std::string& key) const {
    return values_.count(key) != 0;
  }

 private:
  std::map<std::string, std::string> values_;
};

/// Parses the --corner flag — a comma-separated corner list, each entry
/// "name[:delay_scale[:sigma_scale]]" (e.g. "typ,fast:0.9:0.95,slow:1.12")
/// — into engine corner specs. Omitted scales default to 1.0. The list
/// crosses the CLI trust boundary, so it runs through the structured
/// analysis corner rules and every diagnostic is reported before failing.
/// An absent flag returns the empty list (the engine's implicit single
/// default corner).
std::vector<core::CornerSpec> parse_corner_flag(const Args& args,
                                                const char* cmd) {
  std::vector<core::CornerSpec> specs;
  if (!args.has("corner")) return specs;
  const std::string text = args.get("corner", "");
  std::size_t start = 0;
  for (;;) {
    std::size_t end = text.find(',', start);
    if (end == std::string::npos) end = text.size();
    const std::string entry = text.substr(start, end - start);
    util::check(!entry.empty(),
                std::string(cmd) + ": empty entry in --corner list");
    core::CornerSpec spec;
    const std::size_t c1 = entry.find(':');
    spec.name = entry.substr(0, c1);
    try {
      if (c1 != std::string::npos) {
        const std::size_t c2 = entry.find(':', c1 + 1);
        spec.delay_scale = std::stof(entry.substr(c1 + 1, c2 - c1 - 1));
        if (c2 != std::string::npos) {
          spec.sigma_scale = std::stof(entry.substr(c2 + 1));
        }
      }
    } catch (const std::exception&) {
      throw util::CheckError(std::string(cmd) +
                             ": cannot parse --corner entry \"" + entry +
                             "\" (want name[:delay_scale[:sigma_scale]])");
    }
    specs.push_back(std::move(spec));
    if (end == text.size()) break;
    start = end + 1;
  }
  std::vector<analysis::CornerSetup> setup;
  setup.reserve(specs.size());
  for (const core::CornerSpec& s : specs) {
    setup.push_back({s.name, s.delay_scale, s.sigma_scale});
  }
  const analysis::LintReport report = analysis::check_corner_setup(setup);
  if (!report.empty()) std::printf("%s", report.str().c_str());
  util::check(!report.has_errors(),
              std::string(cmd) + ": invalid --corner list");
  return specs;
}

/// Prints one per-corner summary line per corner (report/whatif verbose
/// views; skipped on single-corner engines, whose merged view says it all).
void print_corner_summaries(const core::Engine& engine) {
  if (engine.num_corners() <= 1) return;
  for (std::size_t c = 0; c < engine.num_corners(); ++c) {
    const core::CornerSpec& spec = engine.corners()[c];
    const core::SlackSummary cs = engine.summary(
        core::Mode::kSetup, static_cast<core::CornerId>(c));
    std::printf("  corner %s (delay x%.3f, sigma x%.3f): TNS %.2f ps, "
                "WNS %.2f ps, %d violations\n",
                spec.name.c_str(), static_cast<double>(spec.delay_scale),
                static_cast<double>(spec.sigma_scale), cs.tns, cs.wns,
                cs.violations);
  }
}

/// Applies the global flags every subcommand honours: --log-level (falls
/// back to INSTA_LOG_LEVEL) and --trace (arms the tracer before the
/// subcommand runs; the file is written by finish_telemetry on exit).
void apply_global_flags(const Args& args) {
  if (args.has("log-level")) {
    const std::string text = args.get("log-level", "");
    const auto level = util::parse_log_level(text);
    util::check(level.has_value(), "unknown --log-level " + text);
    util::set_log_level(*level);
  } else {
    util::init_log_level_from_env();
  }
  if (args.has("trace")) telemetry::Tracer::global().set_enabled(true);
}

/// Writes the telemetry artifacts requested via the global flags. Pool
/// gauges are published first so the snapshot includes utilization.
void finish_telemetry(const Args& args) {
  if (args.has("metrics-json")) {
    util::ThreadPool::global().publish_metrics();
    const std::string path = args.get("metrics-json", "");
    std::ofstream f(path, std::ios::binary);
    util::check(static_cast<bool>(f), "cannot write " + path);
    f << telemetry::MetricsRegistry::global().snapshot().to_json();
    util::check(f.good(), "short write to " + path);
    std::printf("wrote metrics snapshot to %s\n", path.c_str());
  }
  if (args.has("trace")) {
    const std::string path = args.get("trace", "");
    util::check(telemetry::Tracer::global().write_chrome_trace(path),
                "cannot write " + path);
    std::printf("wrote Chrome trace to %s (open in ui.perfetto.dev)\n",
                path.c_str());
  }
  if (args.has("flightrec-json")) {
    const std::string path = args.get("flightrec-json", "");
    std::ofstream f(path, std::ios::binary);
    util::check(static_cast<bool>(f), "cannot write " + path);
    f << telemetry::FlightRecorder::global().to_json();
    util::check(f.good(), "short write to " + path);
    std::printf("wrote flight-recorder dump to %s\n", path.c_str());
  }
}

/// Loads a design and prepares graph/delays and, unless `golden` is false,
/// the golden reference (hold optional).
struct World {
  io::LoadedDesign loaded;
  std::unique_ptr<timing::TimingGraph> graph;
  std::unique_ptr<timing::DelayCalculator> calc;
  timing::ArcDelays delays;
  std::unique_ptr<ref::GoldenSta> sta;

  explicit World(const std::string& path, bool hold = false,
                 bool golden = true) {
    loaded = io::load_design_file(path);
    graph = std::make_unique<timing::TimingGraph>(
        *loaded.design, loaded.constraints.clock_root);
    calc = std::make_unique<timing::DelayCalculator>(*loaded.design, *graph);
    calc->compute_all(delays);
    if (!golden) return;
    ref::GoldenOptions opt;
    opt.enable_hold = hold;
    sta = std::make_unique<ref::GoldenSta>(*graph, loaded.constraints, delays,
                                           opt);
    sta->update_full();
  }
};

int cmd_generate(const Args& args) {
  util::check(args.has("out"), "generate: --out is required");
  gen::LogicBlockSpec spec;
  spec.name = args.get("name", "cli_design");
  spec.seed = static_cast<std::uint64_t>(args.get_num("seed", 1));
  spec.num_gates = static_cast<int>(args.get_num("gates", 5000));
  spec.num_ffs = static_cast<int>(args.get_num("ffs", 400));
  spec.depth = static_cast<int>(args.get_num("depth", 20));
  gen::GeneratedDesign gd = gen::build_logic_block(spec);
  timing::TimingGraph graph(*gd.design, gd.constraints.clock_root);
  timing::DelayCalculator calc(*gd.design, graph);
  timing::ArcDelays delays;
  calc.compute_all(delays);
  gen::tune_clock_period(graph, gd.constraints, delays,
                         args.get_num("violate", 0.1));
  io::save_design_file(*gd.design, gd.constraints, args.get("out", ""));
  std::printf("wrote %s: %zu cells, %zu nets, period %.1f ps\n",
              args.get("out", "").c_str(), gd.design->num_cells(),
              gd.design->num_nets(), gd.constraints.clock_period);
  return 0;
}

int cmd_report(const Args& args) {
  util::check(args.has("in"), "report: --in is required");
  const bool hold = args.has("hold");
  World w(args.get("in", ""), hold);
  std::printf("design: %zu cells, %zu pins, %zu endpoints, period %.1f ps\n",
              w.loaded.design->num_cells(), w.loaded.design->num_pins(),
              w.graph->endpoints().size(), w.loaded.constraints.clock_period);
  std::printf("reference: WNS %.2f ps, TNS %.2f ps, %d setup violations\n",
              w.sta->wns(), w.sta->tns(), w.sta->num_violations());
  if (hold) {
    std::printf("hold:      WHS %.2f ps, THS %.2f ps, %d hold violations\n",
                w.sta->whs(), w.sta->ths(), w.sta->num_hold_violations());
  }

  core::EngineOptions eopt;
  eopt.top_k = static_cast<int>(args.get_num("topk", 32));
  eopt.enable_hold = hold;
  eopt.corners = parse_corner_flag(args, "report");
  core::Engine engine(*w.sta, eopt);
  engine.run_forward();
  std::vector<double> a, b;
  for (std::size_t e = 0; e < w.graph->endpoints().size(); ++e) {
    const double g = w.sta->endpoint_slack(static_cast<timing::EndpointId>(e));
    const float m = engine.endpoint_slack(static_cast<timing::EndpointId>(e));
    if (std::isfinite(g) && std::isfinite(m)) {
      a.push_back(g);
      b.push_back(static_cast<double>(m));
    }
  }
  const core::SlackSummary s = engine.merged_summary(core::Mode::kSetup);
  std::printf("INSTA (TopK=%d): TNS %.2f ps, correlation %s\n", eopt.top_k,
              s.tns, util::format_correlation(util::pearson(a, b)).c_str());
  print_corner_summaries(engine);

  const int num_paths = static_cast<int>(args.get_num("paths", 1));
  for (const auto& path : ref::worst_paths(*w.sta, num_paths)) {
    std::printf("\n%s", ref::format_path(*w.sta, path).c_str());
  }
  return 0;
}

int cmd_size(const Args& args) {
  util::check(args.has("in") && args.has("out"),
              "size: --in and --out are required");
  World w(args.get("in", ""));
  const std::string method = args.get("method", "insta");
  size::SizerResult r;
  if (method == "insta") {
    size::InstaSizer sizer(*w.loaded.design, *w.graph, *w.calc, *w.sta, {});
    r = sizer.run();
  } else if (method == "baseline") {
    size::BaselineSizer sizer(*w.loaded.design, *w.graph, *w.calc, *w.sta, {});
    r = sizer.run();
  } else {
    throw util::CheckError("size: unknown --method " + method);
  }
  std::printf("%s sizing: TNS %.2f -> %.2f ps, WNS %.2f -> %.2f ps, "
              "%d cells sized, %.2f s\n",
              method.c_str(), r.initial_tns, r.final_tns, r.initial_wns,
              r.final_wns, r.cells_sized, r.runtime_sec);
  io::save_design_file(*w.loaded.design, w.loaded.constraints,
                       args.get("out", ""));
  return 0;
}

int cmd_buffer(const Args& args) {
  util::check(args.has("in") && args.has("out"),
              "buffer: --in and --out are required");
  World w(args.get("in", ""));
  size::InstaBuffer buffering(*w.loaded.design, w.loaded.constraints, {});
  const size::BufferResult r = buffering.run();
  std::printf("INSTA-Buffer: TNS %.2f -> %.2f ps, %d buffers, %.2f s\n",
              r.initial_tns, r.final_tns, r.buffers_inserted, r.runtime_sec);
  io::save_design_file(*w.loaded.design, w.loaded.constraints,
                       args.get("out", ""));
  return 0;
}

int cmd_lint(const Args& args) {
  util::check(args.has("in"), "lint: --in is required");
  io::LoadedDesign loaded;
  try {
    // Skip the loader's validate(): it throws on the *first* structural
    // violation, while the linter reports them all as diagnostics.
    loaded = io::load_design_file(args.get("in", ""), /*validate=*/false);
  } catch (const util::CheckError& e) {
    analysis::LintReport report;
    analysis::Diagnostic d;
    d.rule = "design-load";
    d.severity = analysis::Severity::kError;
    d.message = std::string("design failed to load: ") + e.what();
    report.add(std::move(d));
    std::printf("%s", report.str().c_str());
    return 1;
  }

  analysis::LintOptions opt;
  opt.max_reports_per_rule =
      static_cast<std::size_t>(args.get_num("max-reports", 20));
  analysis::Linter linter(*loaded.design);
  linter.with_constraints(loaded.constraints).with_options(opt);

  // Design-stage rules run first. Graph construction and the delay
  // calculator assume a structurally valid design (the loader's validate()
  // was skipped above), so they only run once the design-stage report is
  // error-free; a CheckError during construction still becomes a diagnostic.
  analysis::LintReport report = linter.run();

  std::unique_ptr<timing::TimingGraph> graph;
  std::unique_ptr<timing::DelayCalculator> calc;
  timing::ArcDelays delays;
  if (!report.has_errors()) {
    try {
      graph = std::make_unique<timing::TimingGraph>(
          *loaded.design, loaded.constraints.clock_roots());
      calc = std::make_unique<timing::DelayCalculator>(*loaded.design, *graph);
      calc->compute_all(delays);
      linter.with_graph(*graph).with_delays(delays);
      report = linter.run();
    } catch (const util::CheckError& e) {
      graph.reset();
      analysis::Diagnostic d;
      d.rule = "graph-construction";
      d.severity = analysis::Severity::kError;
      d.message = std::string("timing graph construction failed: ") + e.what();
      report.add(std::move(d));
    }
  }

  if (args.has("audit") && graph != nullptr && !report.has_errors()) {
    ref::GoldenSta sta(*graph, loaded.constraints, delays, {});
    sta.update_full();
    core::Engine engine(sta, {});
    engine.run_forward();
    report.merge(analysis::audit_engine(engine));
    util::ThreadPool::global().publish_metrics();
    report.merge(analysis::audit_metrics(
        telemetry::MetricsRegistry::global().snapshot()));
  }

  std::printf("%s", report.str().c_str());
  if (report.has_errors()) return 1;
  if (args.has("strict") && report.count(analysis::Severity::kWarning) > 0) {
    return 1;
  }
  return 0;
}

/// Resolves a --preset name to a generator spec. "tiny" is a sub-second
/// smoke preset; "block-1".."block-5" are the Table-I correlation blocks;
/// "fig7" is the incremental-study block.
gen::LogicBlockSpec resolve_preset(const std::string& name) {
  if (name == "tiny") return gen::tiny_spec(7);
  if (name == "fig7") return gen::fig7_block_spec();
  if (name.rfind("block-", 0) == 0) {
    const std::vector<gen::LogicBlockSpec> specs = gen::table1_block_specs();
    const int idx = std::atoi(name.c_str() + 6);
    util::check(idx >= 1 && idx <= static_cast<int>(specs.size()),
                "profile: --preset block-N with N in 1.." +
                    std::to_string(specs.size()));
    return specs[static_cast<std::size_t>(idx - 1)];
  }
  throw util::CheckError("profile: unknown --preset " + name +
                         " (tiny|block-1..5|fig7)");
}

int cmd_profile(const Args& args) {
  const std::string preset = args.get("preset", "tiny");
  const int iters = std::max(1, static_cast<int>(args.get_num("iters", 3)));
  const int resizes = std::max(1, static_cast<int>(args.get_num("resizes", 8)));
  const gen::LogicBlockSpec spec = resolve_preset(preset);

  struct Phase {
    const char* name;
    int calls;
    double sec;
  };
  std::vector<Phase> phases;
  const auto time_phase = [&phases](const char* name, int calls, auto&& fn) {
    const telemetry::TraceSpan span(name);
    util::Stopwatch sw;
    fn();
    phases.push_back({name, calls, sw.elapsed_sec()});
  };

  std::printf("profile: preset %s, %d iterations\n", preset.c_str(), iters);
  util::Stopwatch wall;

  gen::GeneratedDesign gd;
  std::unique_ptr<timing::TimingGraph> graph;
  time_phase("profile.generate", 1, [&] {
    gd = gen::build_logic_block(spec);
    graph = std::make_unique<timing::TimingGraph>(*gd.design,
                                                  gd.constraints.clock_root);
  });
  std::printf("design: %zu cells, %zu pins, %zu endpoints\n",
              gd.design->num_cells(), gd.design->num_pins(),
              graph->endpoints().size());

  std::unique_ptr<timing::DelayCalculator> calc;
  timing::ArcDelays delays;
  time_phase("profile.delay_calc", 1, [&] {
    calc = std::make_unique<timing::DelayCalculator>(*gd.design, *graph);
    calc->compute_all(delays);
  });
  // Period tuning runs a full golden analysis of its own, so it gets its
  // own row rather than hiding inside delay calc.
  time_phase("profile.tune_period", 1, [&] {
    gen::tune_clock_period(*graph, gd.constraints, delays, 0.08);
  });

  std::unique_ptr<ref::GoldenSta> sta;
  time_phase("profile.golden_full", 1, [&] {
    sta = std::make_unique<ref::GoldenSta>(*graph, gd.constraints, delays);
    sta->update_full();
  });
  // The golden.entries gauge: the reference's work under its derived window.
  std::printf("golden: %zu arrival entries kept, max CPPR credit %.2f ps\n",
              sta->num_entries(), sta->clock().max_credit());

  core::EngineOptions eopt;
  eopt.top_k = static_cast<int>(args.get_num("topk", 32));
  eopt.corners = parse_corner_flag(args, "profile");
  std::unique_ptr<core::Engine> engine;
  time_phase("profile.engine_init", 1,
             [&] { engine = std::make_unique<core::Engine>(*sta, eopt); });

  time_phase("profile.forward", iters, [&] {
    for (int i = 0; i < iters; ++i) engine->run_forward();
  });

  util::Rng rng(2029);
  const std::vector<gen::Resize> changes =
      gen::random_changelist(*gd.design, *graph, rng, iters * resizes);
  time_phase("profile.incremental", iters, [&] {
    for (int it = 0; it < iters; ++it) {
      for (int i = 0; i < resizes; ++i) {
        const gen::Resize& rz =
            changes[static_cast<std::size_t>(it * resizes + i)];
        engine->annotate(calc->estimate_eco(rz.cell, rz.new_libcell));
        gd.design->resize_cell(rz.cell, rz.new_libcell);
        calc->update_for_resize(rz.cell, sta->mutable_delays());
      }
      engine->run_forward_incremental();
    }
  });

  time_phase("profile.backward", iters, [&] {
    for (int i = 0; i < iters; ++i) {
      engine->run_backward(core::GradientMetric::kTns);
    }
  });

  const double wall_sec = wall.elapsed_sec();
  double accounted = 0.0;
  for (const Phase& p : phases) accounted += p.sec;

  util::Table table({"phase", "calls", "total (ms)", "avg (ms)", "% wall"});
  for (const Phase& p : phases) {
    table.add_row({p.name, std::to_string(p.calls),
                   util::fmt("%.2f", p.sec * 1e3),
                   util::fmt("%.2f", p.sec * 1e3 / p.calls),
                   util::fmt("%.1f", 100.0 * p.sec / wall_sec)});
  }
  table.add_row({"(accounted)", "", util::fmt("%.2f", accounted * 1e3), "",
                 util::fmt("%.1f", 100.0 * accounted / wall_sec)});
  table.add_row({"(wall)", "", util::fmt("%.2f", wall_sec * 1e3), "", "100.0"});
  std::fputs(table.str().c_str(), stdout);
  const core::SlackSummary s = engine->merged_summary(core::Mode::kSetup);
  std::printf("TNS %.2f ps, WNS %.2f ps (TopK=%d, %zu corners)\n", s.tns,
              s.wns, eopt.top_k, engine->num_corners());
  return 0;
}

/// Parses a whatif scenarios file through the serve-layer parser (one
/// schema for files and the wire). Every JSON or shape problem becomes a
/// structured diagnostic in `report` instead of a thrown CheckError: the
/// file is untrusted input, so the caller prints the report and exits
/// nonzero rather than aborting mid-stack.
bool parse_whatif_scenarios_file(
    const std::string& path,
    std::vector<std::vector<timing::ArcDelta>>& scenarios,
    std::vector<std::string>& labels, analysis::LintReport& report) {
  std::ifstream f(path, std::ios::binary);
  if (!f) {
    analysis::Diagnostic d;
    d.rule = "whatif-json";
    d.severity = analysis::Severity::kError;
    d.message = "cannot read scenarios file " + path;
    report.add(std::move(d));
    return false;
  }
  std::ostringstream ss;
  ss << f.rdbuf();
  telemetry::JsonValue doc;
  std::string error;
  if (!telemetry::json_parse(ss.str(), doc, error)) {
    analysis::Diagnostic d;
    d.rule = "whatif-json";
    d.severity = analysis::Severity::kError;
    d.message = "scenarios file " + path + " is not valid JSON: " + error;
    report.add(std::move(d));
    return false;
  }
  return serve::parse_scenarios_json(doc, scenarios, labels, report);
}

/// Emits one summary as a whatif-schema JSON object body.
std::string summary_json(const core::SlackSummary& s) {
  return "{\"tns\": " + telemetry::json_number(s.tns) +
         ", \"wns\": " + telemetry::json_number(s.wns) +
         ", \"violations\": " + std::to_string(s.violations) + "}";
}

int cmd_whatif(const Args& args) {
  util::check(args.has("in"), "whatif: --in is required");
  const bool hold = args.has("hold");
  World w(args.get("in", ""), hold);

  core::EngineOptions eopt;
  eopt.top_k = static_cast<int>(args.get_num("topk", 32));
  eopt.enable_hold = hold;
  eopt.corners = parse_corner_flag(args, "whatif");
  // CLI-sourced options go through the validation gate so every problem is
  // reported at once instead of dying on the first constructor check.
  const std::vector<std::string> problems = eopt.validate();
  for (const std::string& p : problems) {
    std::fprintf(stderr, "whatif: %s\n", p.c_str());
  }
  util::check(problems.empty(), "whatif: invalid engine options");
  core::Engine engine(*w.sta, eopt);
  engine.run_forward();

  std::vector<std::vector<timing::ArcDelta>> scenarios;
  std::vector<std::string> labels;
  if (args.has("scenarios")) {
    analysis::LintReport parse_report;
    if (!parse_whatif_scenarios_file(args.get("scenarios", ""), scenarios,
                                     labels, parse_report)) {
      std::printf("%s", parse_report.str().c_str());
      return 1;
    }
  } else {
    // Smoke mode (used by selftest and CI): sample random single-cell
    // resizes and evaluate their estimate_eco deltas as scenarios.
    const int n = std::max(1, static_cast<int>(args.get_num("sample", 8)));
    util::Rng rng(static_cast<std::uint64_t>(args.get_num("seed", 1)));
    const std::vector<gen::Resize> changes =
        gen::random_changelist(*w.loaded.design, *w.graph, rng, n);
    for (std::size_t i = 0; i < changes.size(); ++i) {
      scenarios.push_back(
          w.calc->estimate_eco(changes[i].cell, changes[i].new_libcell));
      labels.push_back("resize-" + std::to_string(i));
    }
  }

  // The scenarios file is a trust boundary: run the structured delta
  // validation up front and report every diagnostic (ScenarioBatch would
  // otherwise throw on the first bad scenario).
  analysis::LintReport report;
  for (const std::vector<timing::ArcDelta>& s : scenarios) {
    report.merge(engine.check_deltas(s));
  }
  if (report.count(analysis::Severity::kWarning) > 0 || report.has_errors()) {
    std::printf("%s", report.str().c_str());
  }
  if (report.has_errors()) return 1;

  const core::SlackSummary base = engine.merged_summary(core::Mode::kSetup);
  std::printf("baseline: TNS %.2f ps, WNS %.2f ps, %d violations\n", base.tns,
              base.wns, base.violations);
  print_corner_summaries(engine);

  core::ScenarioBatch batch(engine);
  util::Stopwatch sw;
  const std::vector<core::ScenarioResult> results = batch.evaluate(scenarios);
  const double sec = sw.elapsed_sec();

  // Multi-corner runs append one merged-contribution column per corner
  // (the merged TNS/WNS columns stay first — they answer "is this scenario
  // safe across all corners").
  const std::size_t num_corners = engine.num_corners();
  std::vector<std::string> cols = {"scenario", "deltas",   "TNS (ps)",
                                   "WNS (ps)", "viol",     "frontier",
                                   "overlay (B)"};
  if (hold) cols.insert(cols.begin() + 5, {"THS (ps)", "hold viol"});
  if (num_corners > 1) {
    for (std::size_t c = 0; c < num_corners; ++c) {
      cols.push_back("TNS@" + engine.corners()[c].name);
    }
  }
  util::Table table(cols);
  for (std::size_t i = 0; i < results.size(); ++i) {
    const core::ScenarioResult& r = results[i];
    std::vector<std::string> row = {
        labels[i],
        std::to_string(scenarios[i].size()),
        util::fmt("%.2f", r.setup.tns),
        util::fmt("%.2f", r.setup.wns),
        std::to_string(r.setup.violations),
        std::to_string(r.frontier_pins),
        std::to_string(r.overlay_bytes)};
    if (hold) {
      row.insert(row.begin() + 5,
                 {util::fmt("%.2f", r.hold.tns),
                  std::to_string(r.hold.violations)});
    }
    if (num_corners > 1) {
      for (std::size_t c = 0; c < num_corners; ++c) {
        row.push_back(util::fmt("%.2f", r.setup_by_corner[c].tns));
      }
    }
    table.add_row(row);
  }
  std::fputs(table.str().c_str(), stdout);
  std::printf("%zu scenarios in %.2f ms (%.0f scenarios/sec)\n",
              results.size(), sec * 1e3,
              static_cast<double>(results.size()) / sec);

  if (args.has("out")) {
    std::ostringstream out;
    // The report is stamped with the producing engine's generation and
    // corner set so a consumer can tell which timing state and which
    // corner definitions the summaries were evaluated against.
    out << "{\n  \"generation\": " << engine.generation()
        << ",\n  \"corners\": [";
    for (std::size_t c = 0; c < num_corners; ++c) {
      const core::CornerSpec& spec = engine.corners()[c];
      out << (c == 0 ? "" : ", ") << "{\"name\": \""
          << telemetry::json_escape(spec.name) << "\", \"delay_scale\": "
          << telemetry::json_number(spec.delay_scale)
          << ", \"sigma_scale\": " << telemetry::json_number(spec.sigma_scale)
          << "}";
    }
    out << "],\n  \"scenarios\": [";
    for (std::size_t i = 0; i < results.size(); ++i) {
      const core::ScenarioResult& r = results[i];
      out << (i == 0 ? "\n" : ",\n");
      out << "    {\"label\": \"" << telemetry::json_escape(labels[i])
          << "\", \"num_deltas\": " << scenarios[i].size()
          << ", \"setup\": " << summary_json(r.setup);
      if (hold) out << ", \"hold\": " << summary_json(r.hold);
      if (num_corners > 1) {
        out << ", \"setup_by_corner\": [";
        for (std::size_t c = 0; c < num_corners; ++c) {
          out << (c == 0 ? "" : ", ") << summary_json(r.setup_by_corner[c]);
        }
        out << "]";
        if (hold) {
          out << ", \"hold_by_corner\": [";
          for (std::size_t c = 0; c < num_corners; ++c) {
            out << (c == 0 ? "" : ", ") << summary_json(r.hold_by_corner[c]);
          }
          out << "]";
        }
      }
      out << ", \"frontier_pins\": " << r.frontier_pins
          << ", \"early_terminations\": " << r.early_terminations
          << ", \"endpoints_evaluated\": " << r.endpoints_evaluated
          << ", \"overlay_bytes\": " << r.overlay_bytes << "}";
    }
    out << "\n  ]\n}\n";
    const std::string path = args.get("out", "");
    std::ofstream f(path, std::ios::binary);
    util::check(static_cast<bool>(f), "whatif: cannot write " + path);
    f << out.str();
    util::check(f.good(), "whatif: short write to " + path);
    std::printf("wrote %s\n", path.c_str());
  }
  return 0;
}

/// Starts the timing-query server on a design and blocks until a client
/// sends a shutdown op (or --max-seconds elapses). All knob sets that cross
/// the CLI trust boundary (engine, service, server, replicator) go through
/// their validate() gates so every bad flag is reported at once, before
/// anything is built.
int cmd_serve(const Args& args) {
  util::check(args.has("in"), "serve: --in is required");
  // A crashing server should leave its last-N request lifecycle behind: dump
  // the flight recorder to stderr on fatal signals.
  telemetry::FlightRecorder::install_signal_dump();
  core::EngineOptions eopt;
  eopt.top_k = static_cast<int>(args.get_num("topk", 32));
  eopt.enable_hold = args.has("hold");
  eopt.corners = parse_corner_flag(args, "serve");

  serve::ServiceOptions sopt;
  sopt.batch_window_us = static_cast<int>(args.get_num("batch-window-us", 200));
  sopt.max_batch = static_cast<int>(args.get_num("max-batch", 64));
  sopt.max_queue = static_cast<int>(args.get_num("max-queue", 256));
  sopt.max_inflight_per_session =
      static_cast<int>(args.get_num("max-inflight", 8));
  sopt.max_sessions = static_cast<int>(args.get_num("max-sessions", 64));
  sopt.collect_endpoints = args.has("endpoints");
  sopt.whatif_cache_entries =
      static_cast<int>(args.get_num("cache-entries", 256));
  sopt.delta_log_capacity = static_cast<int>(args.get_num("delta-log", 1024));
  replica::ReplicatorOptions ropt;
  ropt.upstream = args.get("replica-of", "");
  ropt.poll_ms = static_cast<int>(args.get_num("poll-ms", 50));
  // A replica serves reads only; every edit goes to the writer and arrives
  // here as a replicated commit delta.
  sopt.read_only = !ropt.upstream.empty();

  serve::ServerOptions nopt;
  nopt.unix_path = args.get("socket", "");
  nopt.host = args.get("host", "127.0.0.1");
  nopt.port = static_cast<int>(args.get_num("port", 0));
  nopt.max_connections = static_cast<int>(args.get_num("max-connections", 32));
  nopt.slow_us = static_cast<std::int64_t>(args.get_num("slow-us", -1));

  std::vector<std::string> problems = eopt.validate();
  for (const std::string& p : sopt.validate()) problems.push_back(p);
  for (const std::string& p : nopt.validate()) problems.push_back(p);
  if (!ropt.upstream.empty()) {
    for (const std::string& p : ropt.validate()) problems.push_back(p);
  }
  for (const std::string& p : problems) {
    std::fprintf(stderr, "serve: %s\n", p.c_str());
  }
  util::check(problems.empty(), "serve: invalid options");

  World w(args.get("in", ""), eopt.enable_hold);
  core::Engine engine(*w.sta, eopt);
  engine.run_forward();
  serve::TimingService service(engine, sopt);

  std::unique_ptr<replica::Replicator> replicator;
  if (!ropt.upstream.empty()) {
    replicator = std::make_unique<replica::Replicator>(service, ropt);
    // Converge before accepting clients. The writer may still be starting
    // (CI launches both at once), so retry the bootstrap for a while. The
    // writer is usually up within milliseconds, so the wait starts at 5 ms
    // and doubles up to 200 ms.
    const double bootstrap_sec = args.get_num("bootstrap-seconds", 10);
    util::Stopwatch bsw;
    std::chrono::milliseconds retry_wait(5);
    int attempts = 0;
    for (;;) {
      try {
        ++attempts;
        replicator->bootstrap();
        break;
      } catch (const util::CheckError& e) {
        util::check(bsw.elapsed_sec() < bootstrap_sec,
                    std::string("serve: replica bootstrap failed: ") +
                        e.what());
        std::this_thread::sleep_for(retry_wait);
        retry_wait = std::min(retry_wait * 2, std::chrono::milliseconds(200));
      }
    }
    service.set_replication_info(&replicator->info());
    replicator->start();
    // Attempts and elapsed time tell a writer that was still starting (many
    // attempts) from a slow first sync (one long attempt).
    std::printf("replicating from %s (generation %llu, bootstrap attempts "
                "%d, %.1f ms)\n",
                ropt.upstream.c_str(),
                static_cast<unsigned long long>(service.snapshot()->version),
                attempts, bsw.elapsed_sec() * 1e3);
  }

  serve::Server server(service, nopt);
  server.start();
  // The endpoint line is the startup handshake scripts wait for; flush so a
  // pipe-reading supervisor sees it before the first client connects.
  std::printf("serving on %s (%zu endpoints, %zu corners, snapshot v%llu)\n",
              server.endpoint().c_str(), w.graph->endpoints().size(),
              engine.num_corners(),
              static_cast<unsigned long long>(service.snapshot()->version));
  std::fflush(stdout);

  // --max-seconds arms a watchdog so unattended runs (CI smoke jobs) cannot
  // hang forever if no client ever sends the shutdown op.
  const double max_sec = args.get_num("max-seconds", 0);
  util::Mutex wd_mu("cli.watchdog", util::lockrank::kCliWatchdog);
  util::CondVar wd_cv;
  bool finished = false;
  std::thread watchdog;
  if (max_sec > 0) {
    watchdog = std::thread([&] {
      bool timed_out = false;
      {
        util::UniqueLock lk(wd_mu);
        timed_out = !wd_cv.wait_for(
            lk, std::chrono::duration<double>(max_sec),
            [&finished] { return finished; });
      }
      // stop() joins connection threads and takes the server's locks;
      // never call it while holding wd_mu.
      if (timed_out) {
        std::fprintf(stderr, "serve: --max-seconds %.1f elapsed, stopping\n",
                     max_sec);
        server.stop();
      }
    });
  }

  server.wait();
  server.stop();
  if (replicator != nullptr) replicator->stop();
  if (watchdog.joinable()) {
    {
      const util::LockGuard lk(wd_mu);
      finished = true;
    }
    wd_cv.notify_all();
    watchdog.join();
  }

  const serve::ServiceStats st = service.stats();
  std::printf("served %llu what-if requests (%llu scenarios, %llu batches, "
              "%llu shed), %llu commits\n",
              static_cast<unsigned long long>(st.whatif_requests),
              static_cast<unsigned long long>(st.whatif_scenarios),
              static_cast<unsigned long long>(st.batches),
              static_cast<unsigned long long>(st.shed),
              static_cast<unsigned long long>(st.commits));
  return 0;
}

/// Numeric field lookup with a default, for the loosely-coupled dashboard
/// (older servers may lack newer stats fields).
double stat_num(const telemetry::JsonValue& obj, std::string_view key,
                double fallback = 0.0) {
  const telemetry::JsonValue* v = obj.find(key);
  return (v != nullptr && v->is_number()) ? v->number : fallback;
}

/// Polls the serve stats op and prints a one-line-per-interval dashboard:
/// q/s (from whatif_requests deltas), shed, queue depth, open sessions, and
/// what-if latency percentiles.
int cmd_top(const Args& args) {
  util::check(args.has("connect"), "top: --connect is required");
  const double interval = std::max(0.05, args.get_num("interval-sec", 1.0));
  const int iters = static_cast<int>(args.get_num("iters", 0));
  serve::Client conn(args.get("connect", ""));

  std::printf("%10s %10s %8s %8s %10s %10s %10s\n", "q/s", "reqs", "shed",
              "queue", "sessions", "p50_us", "p99_us");
  double prev_requests = 0.0;
  bool have_prev = false;
  auto prev_t = std::chrono::steady_clock::now();
  for (int i = 0; iters == 0 || i < iters; ++i) {
    if (i > 0) {
      std::this_thread::sleep_for(std::chrono::duration<double>(interval));
    }
    const telemetry::JsonValue doc =
        serve::parse_reply(conn.request("{\"op\": \"stats\"}"));
    const telemetry::JsonValue& result =
        serve::require_result(doc, "top: stats");

    const auto now = std::chrono::steady_clock::now();
    const double requests = stat_num(result, "whatif_requests");
    double qps = 0.0;
    if (have_prev) {
      const double dt = std::chrono::duration<double>(now - prev_t).count();
      if (dt > 0) qps = std::max(0.0, requests - prev_requests) / dt;
    }
    prev_requests = requests;
    prev_t = now;
    have_prev = true;

    double p50 = 0.0;
    double p99 = 0.0;
    const telemetry::JsonValue* lat = result.find("latency_us");
    if (lat != nullptr && lat->is_object()) {
      p50 = stat_num(*lat, "p50");
      p99 = stat_num(*lat, "p99");
    }
    std::printf("%10.1f %10.0f %8.0f %8.0f %10.0f %10.0f %10.0f\n", qps,
                requests, stat_num(result, "shed"),
                stat_num(result, "queue_depth"),
                stat_num(result, "open_sessions"), p50, p99);
    std::fflush(stdout);
  }
  return 0;
}

// ---- client: the NDJSON client, verifier and load generator for `serve` ----

/// Fetches reply.result.<path...>; throws when the server refused or a
/// field is absent (verification treats a missing field as a mismatch,
/// not a soft skip).
const telemetry::JsonValue& result_field(
    const telemetry::JsonValue& reply, const std::string& what,
    std::initializer_list<const char*> path) {
  const telemetry::JsonValue* v = &serve::require_result(reply, what);
  for (const char* key : path) {
    v = v->find(key);
    util::check(v != nullptr, what + ": reply result has no " + key);
  }
  return *v;
}

/// Sends one request; throws "<what>: <server message>" unless the server
/// answered ok.
void request_ok(serve::Client& conn, const std::string& req,
                const std::string& what) {
  (void)serve::require_result(serve::parse_reply(conn.request(req)), what);
}

std::string delta_json(const timing::ArcDelta& d) {
  return "{\"arc\": " + std::to_string(d.arc) +
         ", \"mu\": [" + telemetry::json_number(d.mu[0]) + ", " +
         telemetry::json_number(d.mu[1]) + "], \"sigma\": [" +
         telemetry::json_number(d.sigma[0]) + ", " +
         telemetry::json_number(d.sigma[1]) + "]}";
}

std::string scenarios_json(
    const std::vector<std::vector<timing::ArcDelta>>& scenarios) {
  std::string s = "[";
  for (std::size_t i = 0; i < scenarios.size(); ++i) {
    if (i != 0) s += ", ";
    s += "{\"deltas\": [";
    for (std::size_t j = 0; j < scenarios[i].size(); ++j) {
      if (j != 0) s += ", ";
      s += delta_json(scenarios[i][j]);
    }
    s += "]}";
  }
  return s + "]";
}

/// The estimate_eco deltas of `samples` random resizes, one scenario each.
std::vector<std::vector<timing::ArcDelta>> sample_scenarios(
    const World& w, int samples, std::uint64_t seed) {
  util::Rng rng(seed);
  std::vector<std::vector<timing::ArcDelta>> scenarios;
  for (const gen::Resize& rz :
       gen::random_changelist(*w.loaded.design, *w.graph, rng, samples)) {
    scenarios.push_back(w.calc->estimate_eco(rz.cell, rz.new_libcell));
  }
  return scenarios;
}

/// Exact double comparison against a wire number (json_number prints %.17g,
/// which round-trips; NaN/inf arrive as null and compare equal to any
/// non-finite local value).
bool wire_equals(const telemetry::JsonValue& v, double local) {
  if (v.type == telemetry::JsonValue::Type::kNull) {
    return !std::isfinite(local);
  }
  return v.is_number() && v.number == local;
}

/// Reports one mismatch unless the wire value equals the local one;
/// returns the number of mismatches (0 or 1).
int expect_wire(const std::string& what, double local,
                const telemetry::JsonValue& wire) {
  if (wire_equals(wire, local)) return 0;
  std::fprintf(stderr, "verify: MISMATCH %s: local %.17g, wire %s\n",
               what.c_str(), local,
               wire.is_number() ? "(number)" : "(non-number)");
  if (wire.is_number()) {
    std::fprintf(stderr, "  wire value %.17g\n", wire.number);
  }
  return 1;
}

/// Replays summary / endpoints / whatif against both the wire and a local
/// engine built from the same design file, requiring exact equality.
int run_verify(serve::Client& conn, const Args& args) {
  util::check(args.has("in"), "verify: --in is required");
  const bool hold = args.has("hold");
  const World w(args.get("in", ""), hold);
  core::EngineOptions eopt;
  eopt.top_k = static_cast<int>(args.get_num("topk", 32));
  eopt.enable_hold = hold;
  core::Engine engine(*w.sta, eopt);
  engine.run_forward();

  int failures = 0;

  // summary: the wire's cross-corner merged view (== corner 0 on
  // single-corner engines) against merged_summary.
  {
    const auto reply = serve::parse_reply(
        conn.request("{\"id\": 1, \"op\": \"summary\"}"));
    const std::string what = "verify: summary";
    const core::SlackSummary s = engine.merged_summary(core::Mode::kSetup);
    failures += expect_wire("summary.setup.tns", s.tns,
                            result_field(reply, what, {"setup", "tns"}));
    failures += expect_wire("summary.setup.wns", s.wns,
                            result_field(reply, what, {"setup", "wns"}));
    if (hold) {
      const core::SlackSummary h = engine.merged_summary(core::Mode::kHold);
      failures += expect_wire("summary.hold.tns", h.tns,
                              result_field(reply, what, {"hold", "tns"}));
    }
  }

  // endpoints: every slack of the full range, exact float compare.
  {
    const std::size_t num_eps = w.graph->endpoints().size();
    std::string ids = "[";
    for (std::size_t e = 0; e < num_eps; ++e) {
      if (e != 0) ids += ", ";
      ids += std::to_string(e);
    }
    ids += "]";
    const auto reply = serve::parse_reply(conn.request(
        "{\"id\": 2, \"op\": \"endpoints\", \"ids\": " + ids + "}"));
    const telemetry::JsonValue& eps =
        result_field(reply, "verify: endpoints", {"endpoints"});
    util::check(eps.is_array() && eps.array.size() == num_eps,
                "verify: endpoints reply has wrong cardinality");
    for (std::size_t e = 0; e < num_eps; ++e) {
      const double local = static_cast<double>(
          engine.endpoint_slack(static_cast<timing::EndpointId>(e)));
      const telemetry::JsonValue* slack = eps.array[e].find("slack");
      util::check(slack != nullptr, "verify: endpoint entry has no slack");
      failures +=
          expect_wire("endpoint " + std::to_string(e) + " slack", local,
                      *slack);
    }
  }

  // whatif: identical scenarios through ScenarioBatch locally and through
  // the wire; setup/hold summaries must agree exactly.
  {
    const int samples =
        std::max(1, static_cast<int>(args.get_num("samples", 8)));
    const std::vector<std::vector<timing::ArcDelta>> scenarios =
        sample_scenarios(w, samples,
                         static_cast<std::uint64_t>(args.get_num("seed", 7)));
    core::ScenarioBatch batch(engine);
    const std::vector<core::ScenarioResult> local = batch.evaluate(scenarios);

    const auto reply = serve::parse_reply(conn.request(
        "{\"id\": 3, \"op\": \"whatif\", \"scenarios\": " +
        scenarios_json(scenarios) + "}"));
    const telemetry::JsonValue& results =
        result_field(reply, "verify: whatif", {"results"});
    util::check(results.is_array() && results.array.size() == local.size(),
                "verify: whatif reply has wrong cardinality");
    for (std::size_t i = 0; i < local.size(); ++i) {
      const telemetry::JsonValue& r = results.array[i];
      const telemetry::JsonValue* setup = r.find("setup");
      util::check(setup != nullptr, "verify: whatif result has no setup");
      const std::string tag = "whatif[" + std::to_string(i) + "]";
      const telemetry::JsonValue* tns = setup->find("tns");
      const telemetry::JsonValue* wns = setup->find("wns");
      util::check(tns != nullptr && wns != nullptr,
                  "verify: whatif summary is incomplete");
      failures += expect_wire(tag + ".setup.tns", local[i].setup.tns, *tns);
      failures += expect_wire(tag + ".setup.wns", local[i].setup.wns, *wns);
      if (hold) {
        const telemetry::JsonValue* hs = r.find("hold");
        util::check(hs != nullptr, "verify: whatif result has no hold");
        const telemetry::JsonValue* htns = hs->find("tns");
        util::check(htns != nullptr, "verify: hold summary is incomplete");
        failures += expect_wire(tag + ".hold.tns", local[i].hold.tns, *htns);
      }
    }
  }

  if (failures == 0) {
    std::printf("verify: wire replies are bit-identical to in-process "
                "evaluation\n");
    return 0;
  }
  std::fprintf(stderr, "verify: %d mismatches\n", failures);
  return 1;
}

/// Latency percentile over a sorted sample set.
double percentile(const std::vector<double>& sorted, double p) {
  if (sorted.empty()) return 0.0;
  const auto idx = static_cast<std::size_t>(
      p * static_cast<double>(sorted.size() - 1));
  return sorted[idx];
}

/// Closed-loop mixed workload from one client thread. Records per-request
/// latency (seconds); counts shed replies separately from failures.
struct LoadResult {
  std::vector<double> latencies;
  std::uint64_t ok = 0;
  std::uint64_t shed = 0;      ///< "overloaded" replies (admission control)
  std::uint64_t rejected = 0;  ///< "bad-request" replies (e.g. a random
                               ///< delta landing on a clock-network arc)
  std::uint64_t failed = 0;    ///< anything else — a real protocol failure
};

void run_load_client(const std::string& endpoint, int requests, int deltas,
                     std::uint64_t seed, std::int64_t num_arcs,
                     LoadResult& out) {
  serve::Client conn(endpoint);
  util::Rng rng(seed);
  for (int i = 0; i < requests; ++i) {
    std::string req;
    const std::uint64_t pick = rng() % 4;
    if (pick == 0) {
      req = "{\"id\": " + std::to_string(i) + ", \"op\": \"summary\"}";
    } else if (pick == 1) {
      req = "{\"id\": " + std::to_string(i) +
            ", \"op\": \"endpoints\", \"worst\": 8}";
    } else {
      std::string ds = "[";
      for (int j = 0; j < deltas; ++j) {
        if (j != 0) ds += ", ";
        const auto arc = static_cast<std::int64_t>(
            rng() % static_cast<std::uint64_t>(num_arcs));
        const double mu = 0.5 + 3.0 * rng.uniform();
        ds += "{\"arc\": " + std::to_string(arc) + ", \"mu\": [" +
              telemetry::json_number(mu) + ", " + telemetry::json_number(mu) +
              "]}";
      }
      ds += "]";
      req = "{\"id\": " + std::to_string(i) +
            ", \"op\": \"whatif\", \"scenarios\": [{\"deltas\": " + ds +
            "}]}";
    }
    util::Stopwatch sw;
    const std::string line = conn.request(req);
    out.latencies.push_back(sw.elapsed_sec());
    const auto reply = serve::parse_reply(line);
    const std::string code = serve::reply_error_code(reply);
    if (serve::reply_ok(reply)) {
      ++out.ok;
    } else if (code == "overloaded") {
      ++out.shed;
    } else if (code == "bad-request") {
      ++out.rejected;
    } else {
      ++out.failed;
    }
  }
}

int run_load(const Args& args, const std::string& endpoint) {
  const int clients = std::max(1, static_cast<int>(args.get_num("clients",
                                                                4)));
  const int requests = std::max(1, static_cast<int>(args.get_num("requests",
                                                                 50)));
  const int deltas = std::max(1, static_cast<int>(args.get_num("deltas", 4)));
  const auto seed = static_cast<std::uint64_t>(args.get_num("seed", 11));

  std::int64_t num_arcs = 0;
  {
    serve::Client probe(endpoint);
    const auto reply =
        serve::parse_reply(probe.request("{\"id\": 0, \"op\": \"info\"}"));
    num_arcs = static_cast<std::int64_t>(
        result_field(reply, "load: info", {"arcs"}).number);
    util::check(num_arcs > 0, "load: server reports no arcs");
  }

  std::vector<LoadResult> results(static_cast<std::size_t>(clients));
  std::vector<std::thread> threads;
  util::Stopwatch wall;
  for (int c = 0; c < clients; ++c) {
    threads.emplace_back([&, c] {
      run_load_client(endpoint, requests, deltas, seed + 1000u * c, num_arcs,
                      results[static_cast<std::size_t>(c)]);
    });
  }
  // One mid-run edit commit (small annotate) exercises snapshot
  // republication while readers and what-ifs are in flight.
  std::uint64_t commits = 0;
  if (args.has("edit")) {
    serve::Client edit(endpoint);
    util::Rng rng(seed + 77);
    const auto arc = static_cast<std::int64_t>(
        rng() % static_cast<std::uint64_t>(num_arcs));
    request_ok(edit, "{\"id\": 90, \"op\": \"begin_edit\"}",
               "load: begin_edit");
    request_ok(edit,
               "{\"id\": 91, \"op\": \"annotate\", \"deltas\": [{\"arc\": " +
                   std::to_string(arc) + ", \"mu\": [1.25, 1.25]}]}",
               "load: annotate");
    request_ok(edit, "{\"id\": 92, \"op\": \"commit\"}", "load: commit");
    ++commits;
  }
  for (std::thread& t : threads) t.join();
  const double wall_sec = wall.elapsed_sec();

  std::vector<double> all;
  std::uint64_t ok = 0, shed = 0, rejected = 0, failed = 0;
  for (const LoadResult& r : results) {
    all.insert(all.end(), r.latencies.begin(), r.latencies.end());
    ok += r.ok;
    shed += r.shed;
    rejected += r.rejected;
    failed += r.failed;
  }
  std::sort(all.begin(), all.end());
  std::printf("load: %d clients x %d requests in %.2f s: %.0f q/s, "
              "%llu ok, %llu shed, %llu rejected, %llu failed, "
              "%llu commits\n",
              clients, requests, wall_sec,
              static_cast<double>(all.size()) / wall_sec,
              static_cast<unsigned long long>(ok),
              static_cast<unsigned long long>(shed),
              static_cast<unsigned long long>(rejected),
              static_cast<unsigned long long>(failed),
              static_cast<unsigned long long>(commits));
  std::printf("load: latency p50 %.2f ms, p95 %.2f ms, p99 %.2f ms, "
              "max %.2f ms\n",
              percentile(all, 0.50) * 1e3, percentile(all, 0.95) * 1e3,
              percentile(all, 0.99) * 1e3, all.empty() ? 0.0 : all.back() *
                                                                   1e3);
  if (args.has("out")) {
    // Machine-readable run report, in the shape
    // telemetry::validate_serve_report checks (telemetry_check
    // --serve-report).
    const std::string path = args.get("out", "");
    std::ofstream f(path, std::ios::binary);
    util::check(static_cast<bool>(f), "load: cannot write " + path);
    f << "{\n  \"clients\": " << clients
      << ",\n  \"requests_per_client\": " << requests << ",\n  \"ok\": " << ok
      << ",\n  \"shed\": " << shed << ",\n  \"rejected\": " << rejected
      << ",\n  \"failed\": " << failed << ",\n  \"commits\": " << commits
      << ",\n  \"wall_sec\": " << telemetry::json_number(wall_sec)
      << ",\n  \"qps\": "
      << telemetry::json_number(static_cast<double>(all.size()) / wall_sec)
      << ",\n  \"latency_ms\": {\"p50\": "
      << telemetry::json_number(percentile(all, 0.50) * 1e3) << ", \"p95\": "
      << telemetry::json_number(percentile(all, 0.95) * 1e3) << ", \"p99\": "
      << telemetry::json_number(percentile(all, 0.99) * 1e3) << ", \"max\": "
      << telemetry::json_number(all.empty() ? 0.0 : all.back() * 1e3)
      << "}\n}\n";
    util::check(f.good(), "load: short write to " + path);
    std::printf("load: wrote report to %s\n", path.c_str());
  }
  return failed == 0 ? 0 : 1;
}

/// Sends N edit commits built from random design changelists — the
/// writer-side driver the replication smoke test uses to advance the
/// generation chain.
int run_commit(serve::Client& conn, const Args& args) {
  util::check(args.has("in"), "commit: --in is required");
  const int commits = std::max(1, static_cast<int>(args.get_num("commit", 1)));
  const int resizes = std::max(1, static_cast<int>(args.get_num("deltas", 4)));
  const World w(args.get("in", ""), /*hold=*/false, /*golden=*/false);
  util::Rng rng(static_cast<std::uint64_t>(args.get_num("seed", 19)));

  for (int i = 0; i < commits; ++i) {
    request_ok(conn, "{\"id\": 70, \"op\": \"begin_edit\"}",
               "commit: begin_edit");
    const std::vector<gen::Resize> changes =
        gen::random_changelist(*w.loaded.design, *w.graph, rng, resizes);
    for (const gen::Resize& rz : changes) {
      const std::vector<timing::ArcDelta> deltas =
          w.calc->estimate_eco(rz.cell, rz.new_libcell);
      if (deltas.empty()) continue;
      std::string ds = "[";
      for (std::size_t j = 0; j < deltas.size(); ++j) {
        if (j != 0) ds += ", ";
        ds += delta_json(deltas[j]);
      }
      ds += "]";
      request_ok(conn,
                 "{\"id\": 71, \"op\": \"annotate\", \"deltas\": " + ds + "}",
                 "commit: annotate");
    }
    const auto reply =
        serve::parse_reply(conn.request("{\"id\": 72, \"op\": \"commit\"}"));
    std::printf("commit %d/%d: version %.0f\n", i + 1, commits,
                result_field(reply, "commit: commit", {"version"}).number);
  }
  return 0;
}

/// The reply's result payload as raw bytes, with the per-server
/// "server_us" timing object (the one legitimately deployment-variant
/// member) stripped: the unit of the replication bit-identity gate.
std::string result_bytes(const std::string& reply, const std::string& what) {
  const std::size_t lo = reply.find("\"result\": ");
  util::check(lo != std::string::npos,
              "compare: " + what + " reply has no result");
  const std::size_t hi = reply.rfind(", \"server_us\": ");
  util::check(hi != std::string::npos && hi > lo,
              "compare: " + what + " reply has no server_us");
  return reply.substr(lo, hi - lo);
}

/// Waits until two servers report the same generation, then requires
/// byte-identical result payloads for identical requests on both.
int run_compare(const Args& args, const std::string& a_ep) {
  serve::Client a(a_ep);
  serve::Client b(args.get("compare", ""));
  const double timeout_sec = args.get_num("timeout-sec", 30);

  // Convergence gate: a replica is allowed to lag, not to drift, so poll
  // until both sides sit at one generation before comparing bytes.
  util::Stopwatch sw;
  double gen_a = -1.0;
  double gen_b = -2.0;
  for (;;) {
    const auto ra =
        serve::parse_reply(a.request("{\"id\": 1, \"op\": \"stats\"}"));
    const auto rb =
        serve::parse_reply(b.request("{\"id\": 1, \"op\": \"stats\"}"));
    gen_a = result_field(ra, "compare: stats", {"generation"}).number;
    gen_b = result_field(rb, "compare: stats", {"generation"}).number;
    if (gen_a == gen_b) break;
    util::check(sw.elapsed_sec() < timeout_sec,
                "compare: servers did not converge within " +
                    std::to_string(timeout_sec) + " s (generations " +
                    std::to_string(gen_a) + " vs " + std::to_string(gen_b) +
                    ")");
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
  }
  std::printf("compare: both servers at generation %.0f\n", gen_a);

  int failures = 0;
  const auto compare_req = [&](const std::string& req,
                               const std::string& what) {
    const std::string la = a.request(req);
    const std::string lb = b.request(req);
    util::check(serve::reply_ok(serve::parse_reply(la)) &&
                    serve::reply_ok(serve::parse_reply(lb)),
                "compare: " + what + " failed on the wire");
    if (result_bytes(la, what) != result_bytes(lb, what)) {
      std::fprintf(stderr, "compare: MISMATCH %s\n  A: %s\n  B: %s\n",
                   what.c_str(), la.c_str(), lb.c_str());
      ++failures;
    }
  };

  compare_req("{\"id\": 2, \"op\": \"summary\"}", "summary");
  compare_req("{\"id\": 3, \"op\": \"endpoints\", \"worst\": 64}",
              "endpoints");
  // Per-corner views, from the corner list both sides advertise.
  {
    const auto info =
        serve::parse_reply(a.request("{\"id\": 4, \"op\": \"info\"}"));
    const telemetry::JsonValue& corners =
        result_field(info, "compare: info", {"corners"});
    for (std::size_t c = 0; c < corners.array.size(); ++c) {
      compare_req("{\"id\": 5, \"op\": \"summary\", \"corner\": " +
                      std::to_string(c) + "}",
                  "summary[corner " + std::to_string(c) + "]");
    }
  }
  // What-if equivalence needs real deltas, which need the design file.
  if (args.has("in")) {
    const World w(args.get("in", ""), /*hold=*/false, /*golden=*/false);
    const int samples =
        std::max(1, static_cast<int>(args.get_num("samples", 4)));
    const auto scenarios = sample_scenarios(
        w, samples, static_cast<std::uint64_t>(args.get_num("seed", 23)));
    compare_req("{\"id\": 6, \"op\": \"whatif\", \"scenarios\": " +
                    scenarios_json(scenarios) + "}",
                "whatif");
  }

  if (failures == 0) {
    std::printf("compare: result payloads are byte-identical\n");
    return 0;
  }
  std::fprintf(stderr, "compare: %d mismatches\n", failures);
  return 1;
}

int run_script(serve::Client& conn, const std::string& path) {
  std::ifstream f(path, std::ios::binary);
  util::check(static_cast<bool>(f), "script: cannot read " + path);
  std::string line;
  int rc = 0;
  while (std::getline(f, line)) {
    if (line.empty()) continue;
    const std::string reply = conn.request(line);
    std::printf("%s\n", reply.c_str());
    if (!serve::reply_ok(serve::parse_reply(reply))) rc = 1;
  }
  return rc;
}

void client_usage() {
  std::fprintf(stderr,
               "usage: insta_cli client --connect <unix:/path | host:port>\n"
               "  [--script f.ndjson]                 replay request lines\n"
               "  [--verify 1 --in d.inet [--hold 1] [--topk K]\n"
               "   [--samples N] [--seed S]]          exact wire-vs-local "
               "check\n"
               "  [--load 1 [--clients N] [--requests M] [--deltas D]\n"
               "   [--seed S] [--edit 1]\n"
               "   [--out report.json]]               closed-loop load; --out\n"
               "                                      writes a JSON run "
               "report\n"
               "  [--commit N --in d.inet [--deltas D] [--seed S]]\n"
               "                                      send N random edit "
               "commits\n"
               "  [--compare <unix:/path | host:port> [--in d.inet]\n"
               "   [--timeout-sec T] [--samples N] [--seed S]]\n"
               "                                      byte-compare two "
               "servers\n"
               "  [--shutdown 1]                      stop the server\n");
}

/// Runs the requested client modes left to right: --script, --verify,
/// --load, --commit, --compare, --shutdown. Exit 1 on any mismatch or
/// failure, 2 on usage errors.
int cmd_client(const Args& args) {
  const bool any_mode = args.has("script") || args.has("verify") ||
                        args.has("load") || args.has("commit") ||
                        args.has("compare") || args.has("shutdown");
  if (!args.has("connect") || !any_mode) {
    client_usage();
    return 2;
  }
  const std::string endpoint = args.get("connect", "");
  int rc = 0;
  if (args.has("script")) {
    serve::Client conn(endpoint);
    rc = std::max(rc, run_script(conn, args.get("script", "")));
  }
  if (args.has("verify")) {
    serve::Client conn(endpoint);
    rc = std::max(rc, run_verify(conn, args));
  }
  if (args.has("load")) {
    rc = std::max(rc, run_load(args, endpoint));
  }
  if (args.has("commit")) {
    serve::Client conn(endpoint);
    rc = std::max(rc, run_commit(conn, args));
  }
  if (args.has("compare")) {
    rc = std::max(rc, run_compare(args, endpoint));
  }
  if (args.has("shutdown")) {
    serve::Client conn(endpoint);
    request_ok(conn, "{\"id\": 99, \"op\": \"shutdown\"}", "shutdown");
    std::printf("server shutting down\n");
  }
  return rc;
}

int cmd_selftest() {
  const std::string path = "/tmp/insta_cli_selftest.inet";
  {
    const char* argv[] = {"--out", path.c_str(), "--gates", "800", "--ffs",
                          "64",    "--seed",     "3"};
    Args args(8, const_cast<char**>(argv), 0);
    util::check(cmd_generate(args) == 0, "selftest: generate failed");
  }
  {
    const char* argv[] = {"--in", path.c_str(), "--paths", "2", "--hold", "1"};
    Args args(6, const_cast<char**>(argv), 0);
    util::check(cmd_report(args) == 0, "selftest: report failed");
  }
  {
    const std::string out = "/tmp/insta_cli_selftest_sized.inet";
    const char* argv[] = {"--in", path.c_str(), "--out", out.c_str()};
    Args args(4, const_cast<char**>(argv), 0);
    util::check(cmd_size(args) == 0, "selftest: size failed");
  }
  {
    const char* argv[] = {"--in", path.c_str(), "--audit", "1"};
    Args args(4, const_cast<char**>(argv), 0);
    util::check(cmd_lint(args) == 0, "selftest: lint failed");
  }
  {
    const char* argv[] = {"--preset", "tiny", "--iters", "1"};
    Args args(4, const_cast<char**>(argv), 0);
    util::check(cmd_profile(args) == 0, "selftest: profile failed");
  }
  {
    const std::string out = "/tmp/insta_cli_selftest_whatif.json";
    // Three corners so the selftest covers the multi-corner cross product
    // and the per-corner report schema end to end.
    const char* argv[] = {"--in",   path.c_str(), "--sample", "4",
                          "--hold", "1",          "--out",    out.c_str(),
                          "--corner", "typ,fast:0.9:0.95,slow:1.08:1.04"};
    Args args(10, const_cast<char**>(argv), 0);
    util::check(cmd_whatif(args) == 0, "selftest: whatif failed");
    std::ifstream f(out, std::ios::binary);
    std::ostringstream ss;
    ss << f.rdbuf();
    const telemetry::ValidationResult vr =
        telemetry::validate_whatif_json(ss.str());
    for (const std::string& e : vr.errors) {
      std::fprintf(stderr, "selftest: whatif schema: %s\n", e.c_str());
    }
    util::check(vr.ok, "selftest: whatif output failed schema validation");
  }
  {
    // Serve the design in-process on a temporary unix socket and drive the
    // client modes that read the design against it: --verify, one
    // --commit, --compare of the server with itself, then --shutdown.
    const World w(path);
    core::Engine engine(*w.sta, {});
    engine.run_forward();
    serve::TimingService service(engine);
    serve::ServerOptions nopt;
    nopt.unix_path =
        "/tmp/insta_cli_selftest_" + std::to_string(::getpid()) + ".sock";
    serve::Server server(service, nopt);
    server.start();
    const std::string endpoint = server.endpoint();
    const char* argv[] = {"--connect", endpoint.c_str(), "--in", path.c_str(),
                          "--verify",  "1",              "--commit", "1",
                          "--compare", endpoint.c_str(), "--shutdown", "1"};
    Args args(12, const_cast<char**>(argv), 0);
    util::check(cmd_client(args) == 0, "selftest: client failed");
    server.wait();
    util::check(server.shutdown_requested(),
                "selftest: server missed the shutdown op");
  }
  std::printf("selftest passed\n");
  return 0;
}

void usage() {
  std::fprintf(stderr,
               "usage: insta_cli "
               "<generate|report|size|buffer|lint|profile|whatif|serve|top|"
               "client|selftest> "
               "[--option value ...]\n"
               "global: [--metrics-json m.json] [--trace t.json] "
               "[--flightrec-json f.json] "
               "[--log-level debug|info|warn|error|off]\n");
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) {
    usage();
    return 2;
  }
  const std::string cmd = argv[1];
  try {
    const Args args(argc, argv, 2);
    apply_global_flags(args);
    int rc;
    if (cmd == "generate") {
      rc = cmd_generate(args);
    } else if (cmd == "report") {
      rc = cmd_report(args);
    } else if (cmd == "size") {
      rc = cmd_size(args);
    } else if (cmd == "buffer") {
      rc = cmd_buffer(args);
    } else if (cmd == "lint") {
      rc = cmd_lint(args);
    } else if (cmd == "profile") {
      rc = cmd_profile(args);
    } else if (cmd == "whatif") {
      rc = cmd_whatif(args);
    } else if (cmd == "serve") {
      rc = cmd_serve(args);
    } else if (cmd == "top") {
      rc = cmd_top(args);
    } else if (cmd == "client") {
      rc = cmd_client(args);
    } else if (cmd == "selftest") {
      rc = cmd_selftest();
    } else {
      usage();
      return 2;
    }
    finish_telemetry(args);
    return rc;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
}
