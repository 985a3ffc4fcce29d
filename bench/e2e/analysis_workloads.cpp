// The analysis workloads: the engine embedded in an optimization loop,
// called in-process through the public gen/timing/ref/core API.
//
//   place_refresh  Fig. 9's timing refresh inside global placement: every
//                  arc changes, so dense forward, engine init and dense
//                  backward carry the load; sparse and ScenarioBatch idle.
//   size_eco       the INSTA-Size inner loop at four corners: frontier-sparse
//                  overlays and incremental commits carry the load; the
//                  dense pass runs only in set-up.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <memory>
#include <numbers>
#include <string>
#include <vector>

#include "common.hpp"
#include "core/engine.hpp"
#include "core/scenario_batch.hpp"
#include "gen/logic_block.hpp"
#include "gen/placement_bench.hpp"
#include "gen/presets.hpp"
#include "gen/tune.hpp"
#include "ref/golden_sta.hpp"
#include "resizes.hpp"
#include "spans.hpp"
#include "telemetry/metrics.hpp"
#include "timing/clock.hpp"
#include "timing/delay_calc.hpp"
#include "timing/graph.hpp"
#include "util/memory.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"

namespace insta::e2e {

namespace {

constexpr int kSetups = 3;  ///< set-ups per run; setup_s is their median
constexpr int kTopK = 32;   ///< the paper's default K

/// A timing world: graph, delays, golden reference and the INSTA engine.
struct World {
  std::unique_ptr<timing::TimingGraph> graph;
  std::unique_ptr<timing::DelayCalculator> calc;
  timing::ArcDelays delays;
  std::unique_ptr<ref::GoldenSta> sta;
  std::unique_ptr<core::Engine> engine;

  /// Releases everything, dependents first.
  void clear() {
    engine.reset();
    sta.reset();
    calc.reset();
    graph.reset();
    delays = {};
  }
};

/// Delay calc, CPPR-safe pruned golden (the window GlobalPlacer and the
/// figure benches use), engine init and the first dense forward pass.
void build_timing(const netlist::Design& design,
                  const timing::Constraints& constraints,
                  const timing::DelayModelParams& dm,
                  const core::EngineOptions& eopt, World& w, Spans& spans) {
  {
    const Spans::Scope s(spans, "timing.delay_calc");
    w.graph =
        std::make_unique<timing::TimingGraph>(design, constraints.clock_root);
    w.calc = std::make_unique<timing::DelayCalculator>(design, *w.graph, dm);
    w.calc->compute_all(w.delays);
  }
  {
    const Spans::Scope s(spans, "ref.golden");
    const timing::ClockAnalysis probe(*w.graph, w.delays, constraints.nsigma);
    ref::GoldenOptions gopt;
    gopt.prune_window = probe.max_credit() * 1.5 + 10.0;
    w.sta = std::make_unique<ref::GoldenSta>(*w.graph, constraints, w.delays,
                                             gopt);
    w.sta->update_full();
  }
  {
    const Spans::Scope s(spans, "core.init");
    w.engine = std::make_unique<core::Engine>(*w.sta, eopt);
  }
  {
    const Spans::Scope s(spans, "core.first_forward");
    w.engine->run_forward();
  }
}

/// Clock period giving `violate_fraction` violating endpoints on the
/// design's initial state: part of making the inputs, not of set-up.
double tuned_period(const netlist::Design& design,
                    timing::Constraints constraints,
                    const timing::DelayModelParams& dm,
                    double violate_fraction) {
  const timing::TimingGraph graph(design, constraints.clock_root);
  timing::DelayCalculator calc(design, graph, dm);
  timing::ArcDelays delays;
  calc.compute_all(delays);
  return gen::tune_clock_period(graph, constraints, delays, violate_fraction);
}

}  // namespace

// ---- place_refresh ----------------------------------------------------------

void run_place_refresh(const RunOptions& opt, Result& res) {
  Spans spans(opt.trace);
  gen::PlacementBenchSpec spec;
  spec.logic = gen::table1_block_specs()[0];  // block-1
  if (opt.smoke) {
    spec.logic.name = "block-1-smoke";
    spec.logic.num_gates = 2000;
    spec.logic.num_ffs = 180;
    spec.logic.depth = 12;
  }
  timing::DelayModelParams dm;
  dm.use_placement = true;
  core::EngineOptions eopt;
  eopt.top_k = kTopK;

  double period = 0.0;
  {
    const gen::PlacementBench b = gen::build_placement_bench(spec);
    period = tuned_period(*b.gd.design, b.gd.constraints, dm,
                          spec.violate_fraction);
  }

  // Set-up, kSetups times; the last world stays for the loop.
  gen::PlacementBench bench;
  World w;
  std::vector<double> setup_s;
  for (int i = 0; i < kSetups; ++i) {
    w.clear();
    bench = gen::PlacementBench{};
    const std::int64_t t0 = now_ns();
    {
      const Spans::Scope root(spans, "bench.setup");
      {
        const Spans::Scope s(spans, "gen.build");
        bench = gen::build_placement_bench(spec);
        bench.gd.constraints.clock_period = period;
      }
      build_timing(*bench.gd.design, bench.gd.constraints, dm, eopt, w, spans);
    }
    setup_s.push_back(static_cast<double>(now_ns() - t0) * 1e-9);
  }
  res.set("setup_rss_mb", static_cast<double>(util::peak_rss_bytes()) / 1e6);
  std::printf("place_refresh: %s, %zu cells, %zu pins, %zu endpoints, "
              "period %.1f ps\n",
              spec.logic.name.c_str(), bench.gd.design->num_cells(),
              bench.gd.design->num_pins(), w.graph->endpoints().size(),
              period);

  netlist::Design& design = *bench.gd.design;
  std::vector<netlist::CellId> movable;
  for (std::size_t c = 0; c < design.num_cells(); ++c) {
    if (!design.cell(static_cast<netlist::CellId>(c)).fixed) {
      movable.push_back(static_cast<netlist::CellId>(c));
    }
  }
  util::Rng rng(opt.seed);
  const telemetry::MetricsSnapshot before =
      telemetry::MetricsRegistry::global().snapshot();

  // Each iteration: the placer moves a seeded 20% of movable cells by up to
  // 5 um, then refreshes timing exactly as GlobalPlacer::refresh_timing
  // does (delays, golden, engine re-init, forward, backward).
  std::vector<double> refresh_ms;
  double worst_corr = 1.0;
  double max_mismatch = 0.0;
  std::uint64_t bad_refreshes = 0;
  const std::int64_t loop0 = now_ns();
  const std::int64_t loop_end =
      loop0 + static_cast<std::int64_t>(opt.seconds * 1e9);
  while (now_ns() < loop_end) {
    {
      const Spans::Scope s(spans, "bench.move");
      for (const netlist::CellId id : movable) {
        if (rng.uniform() >= 0.2) continue;
        const double r = 5.0 * rng.uniform();
        const double a = 2.0 * std::numbers::pi * rng.uniform();
        netlist::Cell& cell = design.cell(id);
        cell.x =
            std::clamp(cell.x + r * std::cos(a), 1.0, bench.core_width - 1.0);
        cell.y =
            std::clamp(cell.y + r * std::sin(a), 1.0, bench.core_height - 1.0);
      }
    }
    const std::int64_t t0 = now_ns();
    {
      const Spans::Scope root(spans, "bench.refresh");
      {
        const Spans::Scope s(spans, "timing.delay_calc");
        w.calc->compute_all(w.delays);
      }
      {
        const Spans::Scope s(spans, "ref.golden");
        w.sta->update_full();
      }
      {
        // Releasing the previous image is part of re-initialization.
        const Spans::Scope s(spans, "core.init");
        w.engine.reset();
        w.engine = std::make_unique<core::Engine>(*w.sta, eopt);
      }
      {
        const Spans::Scope s(spans, "core.forward");
        w.engine->run_forward();
      }
      {
        const Spans::Scope s(spans, "core.backward");
        w.engine->run_backward(core::GradientMetric::kTns);
      }
    }
    refresh_ms.push_back(static_cast<double>(now_ns() - t0) * 1e-6);

    // Gate: INSTA endpoint slacks track the golden engine's.
    const Spans::Scope s(spans, "bench.check");
    std::vector<double> g, m;
    for (std::size_t e = 0; e < w.graph->endpoints().size(); ++e) {
      const auto ep = static_cast<timing::EndpointId>(e);
      const double gs = w.sta->endpoint_slack(ep);
      const double ms = w.engine->endpoint_slack(ep);
      if (!std::isfinite(gs) || !std::isfinite(ms)) continue;
      g.push_back(gs);
      m.push_back(ms);
      max_mismatch = std::max(max_mismatch, std::abs(gs - ms));
    }
    const double corr = util::pearson(g, m);
    worst_corr = std::min(worst_corr, corr);
    if (!(corr >= 0.99999)) ++bad_refreshes;
  }
  const double loop_s = static_cast<double>(now_ns() - loop0) * 1e-9;

  res.attempted = refresh_ms.size();
  res.failed = bad_refreshes;
  res.samples["op"] = refresh_ms.size();
  char detail[160];
  std::snprintf(detail, sizeof(detail),
                "worst correlation %.7f over %zu refreshes, max |slack "
                "mismatch| %.4f ps",
                worst_corr, refresh_ms.size(), max_mismatch);
  res.check("insta_vs_golden_correlation",
            bad_refreshes == 0 && !refresh_ms.empty(), detail);

  res.set("setup_s", median(setup_s));
  res.set("op_p50_ms", median(refresh_ms));
  res.set("op_p90_ms", quantile(refresh_ms, 0.9));
  res.set("ops_per_s", static_cast<double>(refresh_ms.size()) / loop_s);
  res.set("run.peak_rss_mb", static_cast<double>(util::peak_rss_bytes()) / 1e6);

  if (!opt.trace) return;
  report_setup_layers(spans, res);
  double total_ms = 0.0;
  for (const double ms : refresh_ms) total_ms += ms;
  report_op_layers(spans, "bench.refresh",
                   {"timing.delay_calc", "ref.golden", "core.init",
                    "core.forward", "core.backward"},
                   total_ms, res);
  const telemetry::MetricsSnapshot after =
      telemetry::MetricsRegistry::global().snapshot();
  const auto n =
      static_cast<double>(std::max<std::size_t>(1, refresh_ms.size()));
  const auto delta = [&](const char* name) {
    return static_cast<double>(after.counter_or(name, 0) -
                               before.counter_or(name, 0));
  };
  const double merges = delta("engine.merge_ops");
  const double prunes = delta("engine.prune_hits");
  res.set("core.merge_ops", merges / n);
  res.set("core.prune_hits", prunes / n);
  res.set("core.prune_ratio", merges > 0.0 ? prunes / merges : 0.0);
  res.set("core.engine_mb",
          static_cast<double>(w.engine->memory_bytes()) / 1e6);

  // Whole-pass effect of the AVX2 kernels on the final state: the same
  // forward pass with the scalar flavor pinned, against the default.
  const auto forward_ms = [&](util::simd::SimdMode mode) {
    core::EngineOptions o = eopt;
    o.simd = mode;
    w.engine.reset();
    w.engine = std::make_unique<core::Engine>(*w.sta, o);
    std::vector<double> ms;
    for (int i = 0; i < 3; ++i) {
      const std::int64_t t0 = now_ns();
      w.engine->run_forward();
      ms.push_back(static_cast<double>(now_ns() - t0) * 1e-6);
    }
    return median(ms);
  };
  const double scalar_ms = forward_ms(util::simd::SimdMode::kScalar);
  const double auto_ms = forward_ms(util::simd::SimdMode::kAuto);
  res.set("core.simd_forward_speedup",
          auto_ms > 0.0 ? scalar_ms / auto_ms : 0.0);
  if (!spans.write_chrome(opt.trace_path)) {
    res.check("trace_written", false, "cannot write " + opt.trace_path);
  }
}

// ---- size_eco ---------------------------------------------------------------

void run_size_eco(const RunOptions& opt, Result& res) {
  Spans spans(opt.trace);
  gen::LogicBlockSpec spec = gen::fig7_block_spec();
  if (opt.smoke) {
    spec.name = "block-2-like-smoke";
    spec.num_gates = 2000;
    spec.num_ffs = 180;
    spec.depth = 12;
  }
  constexpr std::size_t kCandidates = 16;
  constexpr std::size_t kStepKinds = 12;
  // The four-corner MCMM set of the figure benches: corner 0 is the
  // byte-exact default, the others bracket it.
  core::EngineOptions eopt;
  eopt.top_k = kTopK;
  eopt.corners = {{"typ", 1.0f, 1.0f},
                  {"fast", 0.92f, 0.95f},
                  {"slow", 1.08f, 1.05f},
                  {"cold", 1.15f, 1.10f}};
  const timing::DelayModelParams dm;

  double period = 0.0;
  {
    const gen::GeneratedDesign gd = gen::build_logic_block(spec);
    period = tuned_period(*gd.design, gd.constraints, dm, 0.08);
  }

  gen::GeneratedDesign gd;
  World w;
  std::vector<double> setup_s;
  for (int i = 0; i < kSetups; ++i) {
    w.clear();
    gd = gen::GeneratedDesign{};
    const std::int64_t t0 = now_ns();
    {
      const Spans::Scope root(spans, "bench.setup");
      {
        const Spans::Scope s(spans, "gen.build");
        gd = gen::build_logic_block(spec);
        gd.constraints.clock_period = period;
      }
      build_timing(*gd.design, gd.constraints, dm, eopt, w, spans);
    }
    setup_s.push_back(static_cast<double>(now_ns() - t0) * 1e-9);
  }
  res.set("setup_rss_mb", static_cast<double>(util::peak_rss_bytes()) / 1e6);
  std::printf("size_eco: %s, %zu cells, %zu pins, %zu endpoints, %zu corners\n",
              spec.name.c_str(), gd.design->num_cells(),
              gd.design->num_pins(), w.graph->endpoints().size(),
              w.engine->num_corners());

  core::Engine& engine = *w.engine;
  core::ScenarioBatch batch(engine);
  // kStepKinds fixed steps of kCandidates distinct resizes each. A run
  // repeats whole cycles over all of them, each cycle in a seeded order, so
  // every seed evaluates the same candidates while its commit sequence (and
  // so the engine state each step sees) differs.
  const std::vector<gen::Resize> population = depth_spread_resizes(
      *gd.design, *w.graph, kPopulationSeed, kStepKinds * kCandidates);
  util::Rng order_rng(opt.seed);

  std::vector<double> step_ms;
  std::uint64_t mismatches = 0;
  std::uint64_t scen = 0, scen_frontier = 0, scen_early = 0, overlay_bytes = 0;
  std::uint64_t sparse_frontier = 0, sparse_early = 0;
  std::uint64_t w_reused = 0, w_recomputed = 0;
  std::vector<std::vector<timing::ArcDelta>> deltas(kCandidates);
  std::vector<std::size_t> cycle;
  std::size_t at = 0;
  const std::int64_t loop0 = now_ns();
  const std::int64_t loop_end =
      loop0 + static_cast<std::int64_t>(opt.seconds * 1e9);
  while (at < cycle.size() || now_ns() < loop_end) {
    if (at == cycle.size()) {
      cycle = seeded_order(kStepKinds, order_rng());
      at = 0;
    }
    const std::size_t first = cycle[at++] * kCandidates;
    const std::int64_t t0 = now_ns();
    std::vector<core::ScenarioResult> results;
    std::size_t best = 0;
    {
      const Spans::Scope root(spans, "bench.size_step");
      {
        const Spans::Scope s(spans, "timing.estimate_eco");
        for (std::size_t i = 0; i < kCandidates; ++i) {
          const gen::Resize& r = population[first + i];
          deltas[i] = w.calc->estimate_eco(r.cell, r.new_libcell);
        }
      }
      {
        const Spans::Scope s(spans, "core.scenario_eval");
        results = batch.evaluate(deltas);
      }
      for (std::size_t i = 1; i < results.size(); ++i) {
        if (results[i].setup.tns > results[best].setup.tns) best = i;
      }
      {
        const Spans::Scope s(spans, "core.commit");
        auto tx = engine.begin_edit();
        tx.annotate(deltas[best]);
        engine.run_forward_incremental();
        tx.commit();
      }
      {
        const Spans::Scope s(spans, "core.backward");
        engine.run_backward(core::GradientMetric::kTns);
      }
    }
    step_ms.push_back(static_cast<double>(now_ns() - t0) * 1e-6);

    // Gate: the committed state is exactly the scenario that predicted it,
    // merged and per corner.
    const Spans::Scope s(spans, "bench.check");
    bool same =
        engine.merged_summary(core::Mode::kSetup) == results[best].setup;
    for (std::size_t c = 0; c < engine.num_corners(); ++c) {
      same = same && engine.summary(core::Mode::kSetup,
                                    static_cast<core::CornerId>(c)) ==
                         results[best].setup_by_corner[c];
    }
    if (!same) ++mismatches;
    for (const core::ScenarioResult& r : results) {
      ++scen;
      scen_frontier += r.frontier_pins;
      scen_early += r.early_terminations;
      overlay_bytes += r.overlay_bytes;
    }
    sparse_frontier += engine.last_pass_stats().frontier_pins;
    sparse_early += engine.last_pass_stats().early_terminations;
    w_reused += engine.last_backward_stats().weight_pins_reused;
    w_recomputed += engine.last_backward_stats().weight_pins_recomputed;
  }
  const double loop_s = static_cast<double>(now_ns() - loop0) * 1e-9;

  res.attempted = step_ms.size();
  res.failed = mismatches;
  res.samples["op"] = step_ms.size();
  res.check("commit_matches_scenario", mismatches == 0 && !step_ms.empty(),
            std::to_string(mismatches) + " of " +
                std::to_string(step_ms.size()) +
                " committed steps differ from their ScenarioResult");

  res.set("setup_s", median(setup_s));
  res.set("op_p50_ms", median(step_ms));
  res.set("op_p90_ms", quantile(step_ms, 0.9));
  res.set("ops_per_s", static_cast<double>(step_ms.size()) / loop_s);
  res.set("run.peak_rss_mb", static_cast<double>(util::peak_rss_bytes()) / 1e6);

  if (!opt.trace) return;
  report_setup_layers(spans, res);
  double total_ms = 0.0;
  for (const double ms : step_ms) total_ms += ms;
  report_op_layers(spans, "bench.size_step",
                   {"timing.estimate_eco", "core.scenario_eval", "core.commit",
                    "core.backward"},
                   total_ms, res);
  const auto ratio = [](std::uint64_t a, std::uint64_t b) {
    return b > 0 ? static_cast<double>(a) / static_cast<double>(b) : 0.0;
  };
  const auto steps = static_cast<std::uint64_t>(step_ms.size());
  res.set("core.scenario_frontier_pins", ratio(scen_frontier, scen));
  res.set("core.scenario_early_term_ratio", ratio(scen_early, scen_frontier));
  res.set("core.overlay_kb", ratio(overlay_bytes, scen) / 1024.0);
  res.set("core.sparse_frontier_pins", ratio(sparse_frontier, steps));
  res.set("core.sparse_early_term_ratio", ratio(sparse_early, sparse_frontier));
  res.set("core.weight_reuse_ratio", ratio(w_reused, w_reused + w_recomputed));
  res.set("core.engine_mb", static_cast<double>(engine.memory_bytes()) / 1e6);
  if (!spans.write_chrome(opt.trace_path)) {
    res.check("trace_written", false, "cannot write " + opt.trace_path);
  }
}

}  // namespace insta::e2e
