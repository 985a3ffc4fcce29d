#include "core/scenario_batch.hpp"

#include <algorithm>
#include <atomic>
#include <string>

#include "analysis/diagnostics.hpp"
#include "core/topk.hpp"
#include "telemetry/telemetry.hpp"
#include "util/check.hpp"
#include "util/thread_pool.hpp"

namespace insta::core {

using netlist::PinId;
using timing::ArcId;
using timing::EndpointId;
using util::check;

namespace {

/// Registered-once scenario counters.
struct ScenarioMetrics {
  telemetry::Counter batches;
  telemetry::Counter scenarios;
  telemetry::Counter frontier_pins;
  telemetry::Counter early_terminations;
  telemetry::Counter endpoints;
  telemetry::Counter overlay_bytes;
};

ScenarioMetrics& scenario_metrics() {
  static ScenarioMetrics m = [] {
    auto& r = telemetry::MetricsRegistry::global();
    ScenarioMetrics sm;
    sm.batches = r.counter("scenario.batches");
    sm.scenarios = r.counter("scenario.scenarios");
    sm.frontier_pins = r.counter("scenario.frontier_pins");
    sm.early_terminations = r.counter("scenario.early_terminations");
    sm.endpoints = r.counter("scenario.endpoints_evaluated");
    sm.overlay_bytes = r.counter("scenario.overlay_bytes");
    return sm;
  }();
  return m;
}

/// Copy-on-write (mu, sigma) overrides of one per-corner value plane, arc
/// slots or startpoints: idx[key] >= 0 selects mu/sig[idx * 2 + rf], -1
/// reads the baseline.
struct Overrides {
  std::vector<std::int32_t> idx;      // per key
  std::vector<std::int32_t> touched;  // keys in first-touch order
  std::vector<float> mu, sig;

  void set(std::int32_t key, std::size_t rf, float m, float s) {
    std::int32_t& i = idx[static_cast<std::size_t>(key)];
    if (i < 0) {
      i = static_cast<std::int32_t>(touched.size());
      touched.push_back(key);
      const std::size_t need = touched.size() * 2;
      if (mu.size() < need) {
        mu.resize(need);
        sig.resize(need);
      }
    }
    mu[static_cast<std::size_t>(i) * 2 + rf] = m;
    sig[static_cast<std::size_t>(i) * 2 + rf] = s;
  }
  void reset() {
    for (const std::int32_t key : touched) {
      idx[static_cast<std::size_t>(key)] = -1;
    }
    touched.clear();
  }
};

}  // namespace

/// Per-worker copy-on-write evaluation state. Sized once against the parent
/// engine; all per-cell state is reset through compact touched-lists, so a
/// workspace reused across cells (and evaluate() calls) costs O(cell
/// frontier) per run, not O(design).
///
/// The overlay mirrors the engine's per-corner stores: pin_ov[pin] selects
/// a private Top-K slot (both modes and transitions), `arcs` and `sps`
/// override arc delays and startpoint arrivals. OverlayValues resolves each
/// read through them, so the engine's kernels see exactly the values a
/// sequentially annotated engine would hold.
struct ScenarioBatch::Workspace {
  std::int32_t k = 0;
  std::size_t lists = 2;  ///< Top-K lists per pin: modes x transitions

  std::vector<std::int32_t> pin_ov;  // per pin, -1 = baseline
  std::vector<PinId> touched_pins;
  /// Private pin lists: slot ov holds lists [ov * lists, +lists), laid out
  /// like the walk's slab (mode-major, then transition).
  Engine::TopKLists ov;
  Overrides arcs;  // per fanin slot
  Overrides sps;   // per startpoint

  Engine::Frontier fr;
  Engine::WalkScratch walk;
  /// Per endpoint: index of its re-evaluated slacks in `walk`, -1 for the
  /// baseline. Lets the lazy worst-slack rescan see the scenario's values.
  std::vector<std::int32_t> ep_ov;
  /// fold_scenario's scratch: the C slack planes with the cells' endpoint
  /// overrides substituted.
  std::vector<float> merged;

  void init(const Engine& e) {
    k = e.options_.top_k;
    lists = e.options_.enable_hold ? 4 : 2;
    // The maps are corner-relative (one cell in flight per workspace), so
    // they size to the single-corner plane, not the C x stores.
    pin_ov.assign(e.num_pins_, -1);
    arcs.idx.assign(e.num_slots_, -1);
    sps.idx.assign(e.num_sps_, -1);
    fr.init(e.num_pins_, e.level_start_.size() - 1);
    ep_ov.assign(e.ep_pin_.size(), -1);
  }

  /// Clears all per-cell state through the touched-lists. Idempotent.
  void reset() {
    for (const PinId pin : touched_pins) {
      pin_ov[static_cast<std::size_t>(pin)] = -1;
    }
    touched_pins.clear();
    arcs.reset();
    sps.reset();
    for (const EndpointId ep : fr.eps) {
      ep_ov[static_cast<std::size_t>(ep)] = -1;
    }
    fr.clear();
  }

  [[nodiscard]] std::size_t overlay_bytes() const {
    const std::size_t entry = 3 * sizeof(float) + sizeof(std::int32_t);
    const std::size_t topk =
        touched_pins.size() * lists *
        (static_cast<std::size_t>(k) * entry + sizeof(std::int32_t));
    const std::size_t overrides = arcs.touched.size() + sps.touched.size();
    return topk + overrides * 4 * sizeof(float);
  }
};

/// Overlay-first Values adapter of the engine's shared kernels: every read
/// checks the workspace's copy-on-write maps, then falls back to the
/// parent's LiveValues bound to the same corner, so a scenario and a
/// sequential pass execute the same instruction stream over the same bytes.
struct ScenarioBatch::OverlayValues {
  Engine::LiveValues base;
  const Workspace& w;

  [[nodiscard]] TopKConstView parent(std::size_t pin, int rf,
                                     bool early) const {
    const std::int32_t ov = w.pin_ov[pin];
    if (ov < 0) return base.parent(pin, rf, early);
    return w.ov.const_view(static_cast<std::size_t>(ov) * w.lists +
                               (early ? 2 : 0) + static_cast<std::size_t>(rf),
                           w.k);
  }
  [[nodiscard]] float arc_mu(std::size_t slot, int rf) const {
    const std::int32_t i = w.arcs.idx[slot];
    return i >= 0 ? w.arcs.mu[static_cast<std::size_t>(i) * 2 +
                              static_cast<std::size_t>(rf)]
                  : base.arc_mu(slot, rf);
  }
  [[nodiscard]] float arc_sig(std::size_t slot, int rf) const {
    const std::int32_t i = w.arcs.idx[slot];
    return i >= 0 ? w.arcs.sig[static_cast<std::size_t>(i) * 2 +
                               static_cast<std::size_t>(rf)]
                  : base.arc_sig(slot, rf);
  }
  [[nodiscard]] float sp_mu(std::int32_t sp, int rf) const {
    const std::int32_t i = w.sps.idx[static_cast<std::size_t>(sp)];
    return i >= 0 ? w.sps.mu[static_cast<std::size_t>(i) * 2 +
                             static_cast<std::size_t>(rf)]
                  : base.sp_mu(sp, rf);
  }
  [[nodiscard]] float sp_sig(std::int32_t sp, int rf) const {
    const std::int32_t i = w.sps.idx[static_cast<std::size_t>(sp)];
    return i >= 0 ? w.sps.sig[static_cast<std::size_t>(i) * 2 +
                              static_cast<std::size_t>(rf)]
                  : base.sp_sig(sp, rf);
  }
};

/// A workspace's overlay as Engine::walk_frontier()'s store: a changed pin
/// gets a private list slot, a re-evaluated endpoint an ep_ov entry, and
/// the aggregates fold into a copy of the parent corner's. Nothing reaches
/// the parent, the engine.* counters or the engine's spans.
struct ScenarioBatch::OverlayStore {
  struct NoSpan {};

  Workspace& w;
  CornerId corner;
  OverlayValues vals;
  Engine::CornerAggregates agg;

  static void visit(PinId /*pin*/) {}
  void publish(PinId pin, Engine::WalkScratch& scratch, std::size_t i) {
    const auto ov = static_cast<std::int32_t>(w.touched_pins.size());
    w.ov.ensure(static_cast<std::size_t>(ov + 1) * w.lists, w.k);
    for (std::size_t j = 0; j < w.lists; ++j) {
      topk_copy(w.ov.view(static_cast<std::size_t>(ov) * w.lists + j, w.k),
                scratch.slab.view(i * w.lists + j, w.k));
    }
    w.pin_ov[static_cast<std::size_t>(pin)] = ov;
    w.touched_pins.push_back(pin);
  }
  void set_endpoint(std::size_t i, EndpointId ep,
                    const Engine::WalkScratch& /*scratch*/) {
    w.ep_ov[static_cast<std::size_t>(ep)] = static_cast<std::int32_t>(i);
  }
  static void count(const Engine::ForwardCounters& /*fc*/) {}
  static NoSpan span(const char* /*name*/, std::size_t /*n*/) { return {}; }
};

/// What one (scenario, corner) cell hands its scenario's fold: the corner's
/// summaries, its work counters, and its endpoint overrides — each endpoint
/// the frontier reached, with its new slacks, in dirty-endpoint order.
struct ScenarioBatch::Cell {
  SlackSummary setup;
  SlackSummary hold;
  std::uint64_t frontier_pins = 0;
  std::uint64_t early_terminations = 0;
  std::uint64_t endpoints_evaluated = 0;
  std::size_t overlay_bytes = 0;
  /// Recorded only when a reader exists: multi-corner engines (the merged
  /// fold) and corner 0 under collect_endpoints.
  std::vector<EndpointSlackChange> overrides;
};

ScenarioBatch::ScenarioBatch(const Engine& engine, ScenarioBatchOptions options)
    : engine_(&engine), options_(options) {}

ScenarioBatch::~ScenarioBatch() = default;

ScenarioBatch::Workspace& ScenarioBatch::acquire_workspace() {
  const util::LockGuard lock(pool_mutex_);
  if (!free_list_.empty()) {
    Workspace* ws = free_list_.back();
    free_list_.pop_back();
    return *ws;
  }
  workspaces_.push_back(std::make_unique<Workspace>());
  workspaces_.back()->init(*engine_);
  return *workspaces_.back();
}

void ScenarioBatch::release_workspace(Workspace& ws) {
  const util::LockGuard lock(pool_mutex_);
  free_list_.push_back(&ws);
}

/// The per-scenario post-pass over its C cells. Per-corner summaries and
/// counters copy over; multi-corner engines substitute each cell's
/// endpoint overrides into a copy of the parent's C slack planes and take
/// the merged view with Engine::merged_scan, as Engine::merged_summary does.
void ScenarioBatch::fold_scenario(std::span<Cell> cells, Workspace& ws,
                                  ScenarioResult& out) const {
  const Engine& e = *engine_;
  const bool hold = e.options_.enable_hold;
  const std::size_t num_corners = cells.size();
  out.setup_by_corner.resize(num_corners);
  if (hold) out.hold_by_corner.resize(num_corners);
  for (std::size_t c = 0; c < num_corners; ++c) {
    const Cell& cell = cells[c];
    out.setup_by_corner[c] = cell.setup;
    if (hold) out.hold_by_corner[c] = cell.hold;
    out.frontier_pins += cell.frontier_pins;
    out.early_terminations += cell.early_terminations;
    out.endpoints_evaluated += cell.endpoints_evaluated;
    out.overlay_bytes += cell.overlay_bytes;
  }
  if (num_corners == 1) {
    out.setup = cells[0].setup;
    if (hold) out.hold = cells[0].hold;
  } else {
    const std::size_t num_eps = e.ep_pin_.size();
    const auto merged = [&](const std::vector<float>& planes,
                            float EndpointSlackChange::*slack) {
      ws.merged.assign(planes.begin(), planes.end());
      for (std::size_t c = 0; c < num_corners; ++c) {
        for (const EndpointSlackChange& ch : cells[c].overrides) {
          ws.merged[c * num_eps + static_cast<std::size_t>(ch.ep)] = ch.*slack;
        }
      }
      return e.merged_scan(ws.merged.data());
    };
    out.setup = merged(e.slack_, &EndpointSlackChange::setup);
    if (hold) out.hold = merged(e.hold_slack_, &EndpointSlackChange::hold);
  }
  if (options_.collect_endpoints) {
    out.endpoint_changes = std::move(cells[0].overrides);
  }
}

/// One (scenario, corner) cell: the engine's annotate expressions into the
/// overlay, then Engine::walk_frontier over the overlay store, then the
/// lazy worst-slack rescans with the scenario's endpoint slacks visible.
void ScenarioBatch::run_scenario_corner(
    std::span<const timing::ArcDelta> deltas, Workspace& ws,
    bool level_parallel, CornerId corner, std::uint64_t flow_id,
    Cell& out) const {
  INSTA_TRACE_SCOPE("scenario.run",
                    static_cast<std::int64_t>(deltas.size()));
  if (flow_id != 0) telemetry::Tracer::global().flow(flow_id, 't');
  const Engine& e = *engine_;
  for (const timing::ArcDelta& d : deltas) {
    const Engine::CornerAnnotation a = e.annotation(d, corner);
    ws.fr.mark(a.sink, e.graph_->level_of(a.sink));
    Overrides& ov = a.slot >= 0 ? ws.arcs : ws.sps;
    for (const std::size_t rf : {0U, 1U}) {
      ov.set(a.slot >= 0 ? a.slot : a.sp, rf, a.mu[rf], a.sig[rf]);
    }
  }

  // evaluate() settled the parent's aggregates, so the copy starts from
  // the state a sequential pass would start from.
  OverlayStore st{ws, corner, {Engine::LiveValues(e, corner), ws},
                  e.agg_[static_cast<std::size_t>(corner)]};
  const Engine::WalkStats stats = e.walk_frontier(
      st, ws.fr, ws.walk, level_parallel && e.par_.enabled);
  const bool hold = e.options_.enable_hold;
  const std::size_t eoff = e.ep_off(corner);
  // The corner's slack plane with the re-evaluated endpoints substituted.
  const auto visible = [&ws](const float* plane, const float* fresh) {
    return [&ws, plane, fresh](std::size_t ep) {
      const std::int32_t i = ws.ep_ov[ep];
      return i >= 0 ? fresh[i] : plane[ep];
    };
  };
  const std::size_t num_eps = e.ep_pin_.size();
  st.agg.setup.settle(
      num_eps, visible(e.slack_.data() + eoff, ws.walk.setup.data()));
  out.setup = st.agg.setup.summary();
  if (hold) {
    st.agg.hold.settle(
        num_eps, visible(e.hold_slack_.data() + eoff, ws.walk.hold.data()));
    out.hold = st.agg.hold.summary();
  }
  out.frontier_pins = stats.frontier_pins;
  out.early_terminations = stats.early_terminations;
  out.endpoints_evaluated = stats.endpoints;
  // Endpoint overrides for fold_scenario: the merged fold substitutes them
  // for this corner's baseline plane, and corner 0's are the scenario's
  // endpoint_changes.
  if (e.C_ > 1 || (corner == 0 && options_.collect_endpoints)) {
    out.overrides.reserve(ws.fr.eps.size());
    for (std::size_t i = 0; i < ws.fr.eps.size(); ++i) {
      EndpointSlackChange ch;
      ch.ep = ws.fr.eps[i];
      ch.setup = ws.walk.setup[i];
      if (hold) ch.hold = ws.walk.hold[i];
      out.overrides.push_back(ch);
    }
  }
  out.overlay_bytes = ws.overlay_bytes();
}

std::vector<ScenarioResult> ScenarioBatch::evaluate(
    std::span<const std::span<const timing::ArcDelta>> scenarios,
    std::span<const std::uint64_t> flow_ids) {
  INSTA_TRACE_SCOPE("scenario.batch",
                    static_cast<std::int64_t>(scenarios.size()));
  const Engine& e = *engine_;
  check(e.timing_clean(),
        "ScenarioBatch::evaluate: parent engine has pending annotations "
        "(run run_forward_incremental() first)");
  check(flow_ids.empty() || flow_ids.size() == scenarios.size(),
        "ScenarioBatch::evaluate: flow_ids must be empty or match the "
        "scenario count");
  const auto flow_of = [&flow_ids](std::size_t s) -> std::uint64_t {
    return flow_ids.empty() ? 0 : flow_ids[s];
  };
  for (std::size_t s = 0; s < scenarios.size(); ++s) {
    const analysis::LintReport rep = e.check_deltas(scenarios[s]);
    if (rep.has_errors()) {
      check(false, "ScenarioBatch::evaluate: scenario " + std::to_string(s) +
                       " has invalid deltas:\n" + rep.str());
    }
  }
  // Settle every corner's lazy worst-slack rescans so every (scenario,
  // corner) cell folds its deltas from the same aggregate state a
  // sequential pass would start from.
  for (CornerId c = 0; c < static_cast<CornerId>(e.C_); ++c) {
    (void)e.settled(Mode::kSetup, c);
    if (e.options_.enable_hold) (void)e.settled(Mode::kHold, c);
  }

  const std::size_t num_scenarios = scenarios.size();
  std::vector<ScenarioResult> results(num_scenarios);
  if (num_scenarios == 0) return results;

  const std::size_t num_corners = e.C_;
  const std::size_t num_cells = num_scenarios * num_corners;
  std::vector<Cell> cells(num_cells);
  const auto cells_of = [&cells, num_corners](std::size_t s) {
    return std::span<Cell>(cells).subspan(s * num_corners, num_corners);
  };
  if (num_scenarios >= 4) {
    // Many scenarios (many small ECOs): one worker per (scenario, corner)
    // cell, each cell propagating serially with no synchronization between
    // levels. Cells, not scenarios, are the unit of dispatch, so a heavy
    // scenario's corners run on different threads. run_chunked would merge
    // consecutive cells into one chunk (it caps a launch at
    // 4 × (workers + 1) chunks), so the launch instead starts one puller
    // per thread, and each pulls single cells, scenario-major, off a shared
    // counter through its own workspace (level-parallelism off — the pool
    // is already saturated with cells). Whoever finishes a scenario's last
    // cell folds it; the acq_rel countdown publishes the other cells.
    auto& pool = util::ThreadPool::global();
    const std::size_t pullers = std::min(num_cells, pool.size() + 1);
    std::atomic<std::size_t> next_cell{0};
    std::vector<std::atomic<std::size_t>> cells_done(num_scenarios);
    pool.parallel_for(
        std::size_t{0}, pullers,
        [&](std::size_t) {
          Workspace* ws = nullptr;
          for (;;) {
            const std::size_t cell =
                next_cell.fetch_add(1, std::memory_order_relaxed);
            if (cell >= num_cells) break;
            if (ws == nullptr) ws = &acquire_workspace();
            const std::size_t s = cell / num_corners;
            run_scenario_corner(scenarios[s], *ws, /*level_parallel=*/false,
                                static_cast<CornerId>(cell % num_corners),
                                flow_of(s), cells[cell]);
            ws->reset();
            if (cells_done[s].fetch_add(1, std::memory_order_acq_rel) + 1 ==
                num_corners) {
              fold_scenario(cells_of(s), *ws, results[s]);
            }
          }
          if (ws != nullptr) release_workspace(*ws);
        },
        /*grain=*/1);
  } else {
    // Few scenarios (few large ones): cells run one at a time, and each
    // borrows the engine's level-parallel kernels for its own frontier.
    Workspace& ws = acquire_workspace();
    for (std::size_t s = 0; s < num_scenarios; ++s) {
      for (std::size_t c = 0; c < num_corners; ++c) {
        run_scenario_corner(scenarios[s], ws, /*level_parallel=*/true,
                            static_cast<CornerId>(c), flow_of(s),
                            cells_of(s)[c]);
        ws.reset();
      }
      fold_scenario(cells_of(s), ws, results[s]);
    }
    release_workspace(ws);
  }

  ScenarioMetrics& sm = scenario_metrics();
  sm.batches.inc();
  sm.scenarios.add(num_scenarios);
  for (const ScenarioResult& r : results) {
    sm.frontier_pins.add(r.frontier_pins);
    sm.early_terminations.add(r.early_terminations);
    sm.endpoints.add(r.endpoints_evaluated);
    sm.overlay_bytes.add(r.overlay_bytes);
  }
  return results;
}

std::vector<ScenarioResult> ScenarioBatch::evaluate(
    const std::vector<std::vector<timing::ArcDelta>>& scenarios) {
  std::vector<std::span<const timing::ArcDelta>> spans;
  spans.reserve(scenarios.size());
  for (const std::vector<timing::ArcDelta>& s : scenarios) {
    spans.emplace_back(s.data(), s.size());
  }
  return evaluate(std::span<const std::span<const timing::ArcDelta>>(
      spans.data(), spans.size()));
}

}  // namespace insta::core
