#include "core/scenario_batch.hpp"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstring>
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

/// Registered-once scenario counters (no-op stubs when telemetry is off).
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

}  // namespace

/// Per-worker copy-on-write evaluation state. Sized once against the parent
/// engine; all per-scenario state is reset through compact touched-lists, so
/// a workspace reused across scenarios (and evaluate() calls) costs
/// O(scenario frontier) per run, not O(design).
///
/// The overlay model mirrors the engine's flat stores one-to-one:
///   pin_ov[pin]   -> private Top-K slot (both transitions, both modes)
///   slot_ov[slot] -> private arc mu/sigma override
///   sp_ov[sp]     -> private startpoint arrival override
/// with -1 meaning "read the shared baseline". OverlayValues below resolves
/// each read through these maps, so the engine's merge/eval kernels see
/// exactly the values a sequentially annotated engine would hold.
struct ScenarioBatch::Workspace {
  std::int32_t k = 0;
  bool hold = false;
  std::size_t modes = 1;  ///< 1 late-only, 2 with early/hold stores

  // Pin Top-K overlays. Entry storage is [(ov * 2 + rf) * k]; counts are
  // [ov * 2 + rf]. ov2_* mirror the engine's negated early-corner stores.
  std::vector<std::int32_t> pin_ov;  // per pin, -1 = baseline
  std::vector<PinId> touched_pins;
  std::int32_t num_pin_ov = 0;
  std::vector<float> ov_arr, ov_mu, ov_sig;
  std::vector<std::int32_t> ov_sp, ov_cnt;
  std::vector<float> ov2_arr, ov2_mu, ov2_sig;
  std::vector<std::int32_t> ov2_sp, ov2_cnt;

  // Arc-delay overrides, [idx * 2 + rf].
  std::vector<std::int32_t> slot_ov;  // per fanin slot, -1 = baseline
  std::vector<std::int32_t> touched_slots;
  std::int32_t num_slot_ov = 0;
  std::vector<float> ov_amu, ov_asig;

  // Startpoint arrival overrides, [idx * 2 + rf].
  std::vector<std::int32_t> sp_ov;  // per startpoint, -1 = baseline
  std::vector<std::int32_t> touched_sps;
  std::int32_t num_sp_ov = 0;
  std::vector<float> ov_spmu, ov_spsig;

  // Frontier state: the workspace twin of the engine's sparse-pass fields.
  std::vector<std::uint8_t> dirty;             // per pin
  std::vector<std::vector<PinId>> frontier;    // per level
  std::size_t dirty_level = std::numeric_limits<std::size_t>::max();
  std::vector<EndpointId> dirty_eps;
  std::vector<std::uint8_t> changed;           // per frontier slot

  // Phase-1 merge slab: frontier slot i writes entries at
  // ((i * modes + m) * 2 + rf) * k and its count at (i * modes + m) * 2 + rf,
  // so parallel chunks touch disjoint ranges.
  std::vector<float> m_arr, m_mu, m_sig;
  std::vector<std::int32_t> m_sp, m_cnt;

  // Phase-3 results, parallel to dirty_eps; ep_ov lets the lazy WNS rescan
  // substitute scenario slacks for baseline ones.
  std::vector<float> new_setup, new_hold;
  // Between cells it is all -1, and fold_scenario borrows it as scratch.
  std::vector<std::int32_t> ep_ov;  // per endpoint, -1 = baseline slack

  void init(const Engine& e) {
    k = e.options_.top_k;
    hold = e.options_.enable_hold;
    modes = hold ? 2 : 1;
    pin_ov.assign(e.num_pins_, -1);
    dirty.assign(e.num_pins_, 0);
    frontier.resize(e.level_start_.size() - 1);
    // Overlay maps are corner-relative (one cell in flight per workspace),
    // so they size to the single-corner plane, not the C× stores.
    slot_ov.assign(e.num_slots_, -1);
    sp_ov.assign(e.num_sps_, -1);
    ep_ov.assign(e.ep_pin_.size(), -1);
  }

  void ensure_pin_overlay(std::int32_t ov) {
    const auto need = static_cast<std::size_t>(ov + 1) * 2;
    if (ov_cnt.size() >= need) return;
    const std::size_t entries = need * static_cast<std::size_t>(k);
    ov_arr.resize(entries);
    ov_mu.resize(entries);
    ov_sig.resize(entries);
    ov_sp.resize(entries);
    ov_cnt.resize(need);
    if (hold) {
      ov2_arr.resize(entries);
      ov2_mu.resize(entries);
      ov2_sig.resize(entries);
      ov2_sp.resize(entries);
      ov2_cnt.resize(need);
    }
  }

  /// Clears all per-scenario state through the touched-lists. Idempotent;
  /// the frontier sweep is defensive (the level walk already clears levels
  /// it processed).
  void reset() {
    for (const PinId pin : touched_pins) {
      pin_ov[static_cast<std::size_t>(pin)] = -1;
    }
    touched_pins.clear();
    num_pin_ov = 0;
    for (const std::int32_t slot : touched_slots) {
      slot_ov[static_cast<std::size_t>(slot)] = -1;
    }
    touched_slots.clear();
    num_slot_ov = 0;
    for (const std::int32_t sp : touched_sps) {
      sp_ov[static_cast<std::size_t>(sp)] = -1;
    }
    touched_sps.clear();
    num_sp_ov = 0;
    for (const EndpointId ep : dirty_eps) {
      ep_ov[static_cast<std::size_t>(ep)] = -1;
    }
    dirty_eps.clear();
    for (std::vector<PinId>& fr : frontier) {
      for (const PinId pin : fr) dirty[static_cast<std::size_t>(pin)] = 0;
      fr.clear();
    }
    dirty_level = std::numeric_limits<std::size_t>::max();
  }

  /// Workspace twin of Engine::mark_dirty.
  void mark(PinId pin, int lvl) {
    if (lvl < 0) return;
    const auto p = static_cast<std::size_t>(pin);
    if (dirty[p] != 0) return;
    dirty[p] = 1;
    frontier[static_cast<std::size_t>(lvl)].push_back(pin);
    dirty_level = std::min(dirty_level, static_cast<std::size_t>(lvl));
  }

  [[nodiscard]] std::size_t overlay_bytes() const {
    const std::size_t entry = 3 * sizeof(float) + sizeof(std::int32_t);
    const std::size_t topk = static_cast<std::size_t>(num_pin_ov) * 2 *
                                 static_cast<std::size_t>(k) * entry * modes +
                             static_cast<std::size_t>(num_pin_ov) * 2 *
                                 sizeof(std::int32_t) * modes;
    const std::size_t arcs = touched_slots.size() * 4 * sizeof(float);
    const std::size_t sps = touched_sps.size() * 4 * sizeof(float);
    return topk + arcs + sps;
  }
};

/// Overlay-first Values adapter of the engine's shared kernels: every read
/// checks the workspace's copy-on-write maps before falling back to the
/// parent's baseline arrays. The adapter is bound to one corner; its
/// fallback expressions match Engine::LiveValues (corner offsets included)
/// exactly, so a scenario and a sequential pass execute the same
/// instruction stream over the same bytes.
struct ScenarioBatch::OverlayValues {
  const Engine& e;
  const Workspace& w;
  std::size_t tkoff;    ///< corner offset into the Top-K entry planes
  std::size_t cntoff;   ///< corner offset into the count planes
  std::size_t slotoff;  ///< corner offset into amu_/asig_
  std::size_t spoff;    ///< corner offset into sp_mu_/sp_sig_

  OverlayValues(const Engine& eng, const Workspace& ws, CornerId corner)
      : e(eng),
        w(ws),
        tkoff(eng.tk_off(corner)),
        cntoff(eng.cnt_off(corner)),
        slotoff(eng.slot_off(corner)),
        spoff(eng.sp_off(corner)) {}

  [[nodiscard]] TopKConstView parent(std::size_t pin, int rf,
                                     bool early) const {
    const std::int32_t ov = w.pin_ov[pin];
    if (ov >= 0) {
      const auto c = static_cast<std::size_t>(ov) * 2 +
                     static_cast<std::size_t>(rf);
      const std::size_t base = c * static_cast<std::size_t>(w.k);
      if (early) {
        return {&w.ov2_arr[base], &w.ov2_mu[base], &w.ov2_sig[base],
                &w.ov2_sp[base], w.ov2_cnt[c]};
      }
      return {&w.ov_arr[base], &w.ov_mu[base], &w.ov_sig[base],
              &w.ov_sp[base], w.ov_cnt[c]};
    }
    const auto& arr = early ? e.tk2_arr_ : e.tk_arr_;
    const auto& mu = early ? e.tk2_mu_ : e.tk_mu_;
    const auto& sig = early ? e.tk2_sig_ : e.tk_sig_;
    const auto& sp = early ? e.tk2_sp_ : e.tk_sp_;
    const auto& cnt = early ? e.tk2_cnt_ : e.tk_cnt_;
    const std::size_t ci = e.cnt_index(static_cast<PinId>(pin), rf);
    const std::size_t base = tkoff + ci * e.tk_stride_;
    return {&arr[base], &mu[base], &sig[base], &sp[base], cnt[cntoff + ci]};
  }
  [[nodiscard]] float arc_mu(std::size_t slot, int rf) const {
    const std::int32_t idx = w.slot_ov[slot];
    if (idx >= 0) {
      return w.ov_amu[static_cast<std::size_t>(idx) * 2 +
                      static_cast<std::size_t>(rf)];
    }
    return e.amu_[static_cast<std::size_t>(rf)][slotoff + slot];
  }
  [[nodiscard]] float arc_sig(std::size_t slot, int rf) const {
    const std::int32_t idx = w.slot_ov[slot];
    if (idx >= 0) {
      return w.ov_asig[static_cast<std::size_t>(idx) * 2 +
                       static_cast<std::size_t>(rf)];
    }
    return e.asig_[static_cast<std::size_t>(rf)][slotoff + slot];
  }
  [[nodiscard]] float sp_mu(std::int32_t sp, int rf) const {
    const std::int32_t idx = w.sp_ov[static_cast<std::size_t>(sp)];
    if (idx >= 0) {
      return w.ov_spmu[static_cast<std::size_t>(idx) * 2 +
                       static_cast<std::size_t>(rf)];
    }
    return e.sp_mu_[static_cast<std::size_t>(rf)]
                   [spoff + static_cast<std::size_t>(sp)];
  }
  [[nodiscard]] float sp_sig(std::int32_t sp, int rf) const {
    const std::int32_t idx = w.sp_ov[static_cast<std::size_t>(sp)];
    if (idx >= 0) {
      return w.ov_spsig[static_cast<std::size_t>(idx) * 2 +
                        static_cast<std::size_t>(rf)];
    }
    return e.sp_sig_[static_cast<std::size_t>(rf)]
                    [spoff + static_cast<std::size_t>(sp)];
  }
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
/// counters copy over; multi-corner engines fold each cell's overrides into
/// a running per-endpoint minimum, corner 0 first, that a final
/// endpoint-major scan turns into the merged summary — the same semantics
/// (and float comparisons) as Engine::merged_summary.
void ScenarioBatch::fold_scenario(std::span<Cell> cells, Workspace& ws,
                                  ScenarioResult& out) const {
  const Engine& e = *engine_;
  const bool hold = ws.hold;
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
    // Corner-major running minimum: each corner's overrides substitute for
    // its baseline plane through the workspace's endpoint map.
    const std::size_t num_eps = e.ep_pin_.size();
    constexpr float kInf = std::numeric_limits<float>::infinity();
    std::vector<float> merged_setup(num_eps, kInf);
    std::vector<float> merged_hold(hold ? num_eps : 0, kInf);
    for (std::size_t c = 0; c < num_corners; ++c) {
      const std::vector<EndpointSlackChange>& ov = cells[c].overrides;
      for (std::size_t i = 0; i < ov.size(); ++i) {
        ws.ep_ov[static_cast<std::size_t>(ov[i].ep)] =
            static_cast<std::int32_t>(i);
      }
      const std::size_t eoff = e.ep_off(static_cast<CornerId>(c));
      for (std::size_t ep = 0; ep < num_eps; ++ep) {
        const std::int32_t oi = ws.ep_ov[ep];
        const float s = oi >= 0 ? ov[static_cast<std::size_t>(oi)].setup
                                : e.slack_[eoff + ep];
        if (s < merged_setup[ep]) merged_setup[ep] = s;
        if (hold) {
          const float h = oi >= 0 ? ov[static_cast<std::size_t>(oi)].hold
                                  : e.hold_slack_[eoff + ep];
          if (h < merged_hold[ep]) merged_hold[ep] = h;
        }
      }
      for (const EndpointSlackChange& ch : ov) {
        ws.ep_ov[static_cast<std::size_t>(ch.ep)] = -1;
      }
    }
    // Endpoint-major merged scan, same order and comparisons as
    // Engine::merged_summary (unconstrained-everywhere endpoints stayed
    // +inf and are skipped).
    const auto merge_scan = [num_eps](const std::vector<float>& m) {
      double tns = 0.0;
      float worst = 0.0f;
      bool any = false;
      int violations = 0;
      for (std::size_t ep = 0; ep < num_eps; ++ep) {
        const float s = m[ep];
        if (!std::isfinite(s)) continue;
        if (s < 0.0f) {
          tns += static_cast<double>(s);
          ++violations;
        }
        if (!any || s < worst) {
          worst = s;
          any = true;
        }
      }
      return SlackSummary{tns, any ? static_cast<double>(worst) : 0.0,
                          violations};
    };
    out.setup = merge_scan(merged_setup);
    if (hold) out.hold = merge_scan(merged_hold);
  }
  if (options_.collect_endpoints) {
    out.endpoint_changes = std::move(cells[0].overrides);
  }
}

/// One (scenario, corner) cell: overlay-annotate, frontier-sparse level
/// walk, delta endpoint evaluation, aggregate replay — all against one
/// corner's baseline planes. Every phase mirrors the corresponding stretch
/// of Engine::annotate / Engine::run_forward_sparse_corner in both
/// operation order and float expressions — that (plus the shared kernels)
/// is the bit-identity argument, so any edit here must keep the pairing
/// intact.
void ScenarioBatch::run_scenario_corner(
    std::span<const timing::ArcDelta> deltas, Workspace& ws,
    bool level_parallel, CornerId corner, std::uint64_t flow_id,
    Cell& out) const {
  INSTA_TRACE_SCOPE("scenario.run",
                    static_cast<std::int64_t>(deltas.size()));
  if (flow_id != 0) telemetry::Tracer::global().flow(flow_id, 't');
  const Engine& e = *engine_;
  const auto cc = static_cast<std::size_t>(corner);
  const float dscale = e.corners_[cc].delay_scale;
  const float sscale = e.corners_[cc].sigma_scale;
  const bool hold = ws.hold;
  const std::size_t modes = ws.modes;
  const auto k = static_cast<std::int32_t>(ws.k);
  const auto ksz = static_cast<std::size_t>(ws.k);
  auto& pool = util::ThreadPool::global();
  const bool parallel = level_parallel && e.options_.parallel;
  const auto threshold =
      static_cast<std::size_t>(e.options_.parallel_threshold);
  const auto grain = static_cast<std::size_t>(e.options_.parallel_grain);

  // ---- overlay annotate: Engine::annotate against the override maps ------
  for (const timing::ArcDelta& d : deltas) {
    const auto arc = static_cast<std::size_t>(d.arc);
    const std::int32_t slot = e.slot_of_arc_[arc];
    {
      const PinId to = e.graph_->arc(d.arc).to;
      ws.mark(to, e.graph_->level_of(to));
    }
    if (slot >= 0) {
      std::int32_t idx = ws.slot_ov[static_cast<std::size_t>(slot)];
      if (idx < 0) {
        idx = ws.num_slot_ov++;
        const auto need = static_cast<std::size_t>(idx + 1) * 2;
        if (ws.ov_amu.size() < need) {
          ws.ov_amu.resize(need);
          ws.ov_asig.resize(need);
        }
        ws.slot_ov[static_cast<std::size_t>(slot)] = idx;
        ws.touched_slots.push_back(slot);
      }
      for (const int rf : {0, 1}) {
        const auto at = static_cast<std::size_t>(idx) * 2 +
                        static_cast<std::size_t>(rf);
        // Same corner-scale fold as Engine::annotate, term for term.
        ws.ov_amu[at] =
            Engine::scaled(d.mu[static_cast<std::size_t>(rf)], dscale);
        ws.ov_asig[at] =
            Engine::scaled(d.sigma[static_cast<std::size_t>(rf)], sscale);
      }
      continue;
    }
    const std::int32_t sp = e.launch_sp_of_arc_[arc];
    check(sp >= 0,
          "ScenarioBatch: arc is neither a data arc nor a launch arc "
          "(clock-network arcs require re-initialization)");
    std::int32_t idx = ws.sp_ov[static_cast<std::size_t>(sp)];
    if (idx < 0) {
      idx = ws.num_sp_ov++;
      const auto need = static_cast<std::size_t>(idx + 1) * 2;
      if (ws.ov_spmu.size() < need) {
        ws.ov_spmu.resize(need);
        ws.ov_spsig.resize(need);
      }
      ws.sp_ov[static_cast<std::size_t>(sp)] = idx;
      ws.touched_sps.push_back(sp);
    }
    for (const int rf : {0, 1}) {
      const auto rfi = static_cast<std::size_t>(rf);
      const auto spi = static_cast<std::size_t>(sp);
      const auto at = static_cast<std::size_t>(idx) * 2 + rfi;
      const float dsig = Engine::scaled(d.sigma[rfi], sscale);
      // Same fold as Engine::annotate, term for term.
      ws.ov_spmu[at] = e.sp_ck_mu_[spi] + Engine::scaled(d.mu[rfi], dscale);
      ws.ov_spsig[at] = std::sqrt(e.sp_ck_sig2_[spi] + dsig * dsig);
    }
  }

  // ---- frontier-sparse level walk: Engine::run_forward_sparse_corner -----
  const OverlayValues vals(e, ws, corner);
  const std::size_t num_levels = e.level_start_.size() - 1;
  for (std::size_t l = std::min(ws.dirty_level, num_levels); l < num_levels;
       ++l) {
    std::vector<PinId>& fr = ws.frontier[l];
    if (fr.empty()) continue;

    // Phase 1 (parallel under level-parallelism): re-merge every dirty pin
    // into this level's slab slice and flag value changes against the
    // visible (overlay-first) store. Chunks write disjoint slab/flag
    // ranges; overlay maps are read-only here.
    ws.changed.assign(fr.size(), 0);
    const std::size_t need_cnt = fr.size() * modes * 2;
    if (ws.m_cnt.size() < need_cnt) {
      ws.m_cnt.resize(need_cnt);
      ws.m_arr.resize(need_cnt * ksz);
      ws.m_mu.resize(need_cnt * ksz);
      ws.m_sig.resize(need_cnt * ksz);
      ws.m_sp.resize(need_cnt * ksz);
    }
    auto run = [&](std::size_t a, std::size_t b) {
      Engine::ForwardCounters fc;
      for (std::size_t i = a; i < b; ++i) {
        const PinId pin = fr[i];
        bool pin_changed = false;
        for (std::size_t m = 0; m < modes; ++m) {
          for (int rf = 0; rf < 2; ++rf) {
            const std::size_t c =
                (i * modes + m) * 2 + static_cast<std::size_t>(rf);
            const TopKView dst{&ws.m_arr[c * ksz], &ws.m_mu[c * ksz],
                               &ws.m_sig[c * ksz], &ws.m_sp[c * ksz], k,
                               &ws.m_cnt[c]};
            if (m == 0) {
              e.merge_pin_values<false>(vals, pin, rf, dst, fc);
            } else {
              e.merge_pin_values<true>(vals, pin, rf, dst, fc);
            }
            if (!topk_equal_const(
                    dst, vals.parent(static_cast<std::size_t>(pin), rf,
                                     /*early=*/m != 0))) {
              pin_changed = true;
            }
          }
        }
        ws.changed[i] = pin_changed ? 1 : 0;
      }
    };
    if (parallel && fr.size() >= threshold) {
      pool.parallel_for_chunks(std::size_t{0}, fr.size(), run, grain);
    } else {
      run(0, fr.size());
    }

    // Phase 2 (serial scatter): a changed pin materializes its private
    // Top-K slot (all transitions and modes — unchanged lists copy bytes
    // equal to baseline, so visibility is unaffected), queues its endpoint,
    // and dirties its fanout; an unchanged pin ends the ripple.
    std::uint64_t early_terms = 0;
    for (std::size_t i = 0; i < fr.size(); ++i) {
      const auto p = static_cast<std::size_t>(fr[i]);
      ws.dirty[p] = 0;
      if (ws.changed[i] == 0) {
        ++early_terms;
        continue;
      }
      const std::int32_t ov = ws.num_pin_ov++;
      ws.ensure_pin_overlay(ov);
      for (std::size_t m = 0; m < modes; ++m) {
        for (int rf = 0; rf < 2; ++rf) {
          const std::size_t c =
              (i * modes + m) * 2 + static_cast<std::size_t>(rf);
          const std::int32_t cnt = ws.m_cnt[c];
          const auto oc = static_cast<std::size_t>(ov) * 2 +
                          static_cast<std::size_t>(rf);
          const std::size_t src = c * ksz;
          const std::size_t dst = oc * ksz;
          const auto fb = static_cast<std::size_t>(cnt) * sizeof(float);
          const auto ib = static_cast<std::size_t>(cnt) * sizeof(std::int32_t);
          if (m == 0) {
            std::memcpy(&ws.ov_arr[dst], &ws.m_arr[src], fb);
            std::memcpy(&ws.ov_mu[dst], &ws.m_mu[src], fb);
            std::memcpy(&ws.ov_sig[dst], &ws.m_sig[src], fb);
            std::memcpy(&ws.ov_sp[dst], &ws.m_sp[src], ib);
            ws.ov_cnt[oc] = cnt;
          } else {
            std::memcpy(&ws.ov2_arr[dst], &ws.m_arr[src], fb);
            std::memcpy(&ws.ov2_mu[dst], &ws.m_mu[src], fb);
            std::memcpy(&ws.ov2_sig[dst], &ws.m_sig[src], fb);
            std::memcpy(&ws.ov2_sp[dst], &ws.m_sp[src], ib);
            ws.ov2_cnt[oc] = cnt;
          }
        }
      }
      ws.pin_ov[p] = ov;
      ws.touched_pins.push_back(fr[i]);
      if (e.ep_of_pin_[p] >= 0) {
        ws.dirty_eps.push_back(static_cast<EndpointId>(e.ep_of_pin_[p]));
      }
      const std::int32_t os = e.fo_start_[p];
      const std::int32_t oe = e.fo_start_[p + 1];
      for (std::int32_t o = os; o < oe; ++o) {
        const PinId child = e.fo_to_[static_cast<std::size_t>(o)];
        if (ws.dirty[static_cast<std::size_t>(child)] != 0) continue;
        ws.mark(child, e.graph_->level_of(child));
      }
    }
    out.frontier_pins += fr.size();
    out.early_terminations += early_terms;
    fr.clear();
  }
  ws.dirty_level = std::numeric_limits<std::size_t>::max();

  // ---- delta endpoint evaluation (phase 3) -------------------------------
  const std::size_t nd = ws.dirty_eps.size();
  ws.new_setup.resize(nd);
  if (hold) ws.new_hold.resize(nd);
  auto eval = [&](std::size_t a, std::size_t b) {
    for (std::size_t i = a; i < b; ++i) {
      ws.new_setup[i] =
          e.evaluate_endpoint_values(vals, ws.dirty_eps[i]).slack;
      if (hold) {
        ws.new_hold[i] =
            e.evaluate_endpoint_hold_values(vals, ws.dirty_eps[i]).slack;
      }
    }
  };
  if (parallel && nd >= threshold) {
    pool.parallel_for_chunks(std::size_t{0}, nd, eval,
                             static_cast<std::size_t>(e.options_.endpoint_grain));
  } else {
    eval(0, nd);
  }
  out.endpoints_evaluated = nd;

  // ---- aggregate replay: apply_setup_delta/apply_hold_delta on locals ----
  // Starts from this corner's settled parent caches (evaluate() reads
  // tns(c)/wns(c) up front) and folds deltas in dirty_eps order — the same
  // order a sequential pass folds them.
  const std::size_t eoff = e.ep_off(corner);
  double tns = e.tns_cache_[cc];
  int nviol = e.nviol_cache_[cc];
  float wns_c = e.wns_cache_[cc];
  bool wns_any = e.wns_any_[cc] != 0;
  bool wns_valid = e.wns_valid_[cc] != 0;
  double ths = hold ? e.ths_cache_[cc] : 0.0;
  int nhviol = hold ? e.nhold_viol_cache_[cc] : 0;
  float whs_c = hold ? e.whs_cache_[cc] : 0.0f;
  bool whs_any = hold && e.whs_any_[cc] != 0;
  bool whs_valid = hold && e.whs_valid_[cc] != 0;
  for (std::size_t i = 0; i < nd; ++i) {
    const auto epi = static_cast<std::size_t>(ws.dirty_eps[i]);
    // Recorded before the equality skip so the lazy rescan substitutes the
    // scenario value even when it equals the baseline (last write wins for
    // endpoints reached twice — they are not: fanout climbs levels, so each
    // endpoint appears at most once in dirty_eps).
    ws.ep_ov[epi] = static_cast<std::int32_t>(i);
    const float oldv = e.slack_[eoff + epi];
    const float newv = ws.new_setup[i];
    if (oldv != newv) {
      if (std::isfinite(oldv) && oldv < 0.0f) {
        tns -= static_cast<double>(oldv);
        --nviol;
      }
      if (std::isfinite(newv) && newv < 0.0f) {
        tns += static_cast<double>(newv);
        ++nviol;
      }
      if (wns_valid) {
        if (std::isfinite(newv) && (!wns_any || newv <= wns_c)) {
          wns_c = newv;
          wns_any = true;
        } else if (wns_any && std::isfinite(oldv) && oldv <= wns_c) {
          wns_valid = false;
        }
      }
    }
    if (hold) {
      const float holdo = e.hold_slack_[eoff + epi];
      const float holdn = ws.new_hold[i];
      if (holdo != holdn) {
        if (std::isfinite(holdo) && holdo < 0.0f) {
          ths -= static_cast<double>(holdo);
          --nhviol;
        }
        if (std::isfinite(holdn) && holdn < 0.0f) {
          ths += static_cast<double>(holdn);
          ++nhviol;
        }
        if (whs_valid) {
          if (std::isfinite(holdn) && (!whs_any || holdn <= whs_c)) {
            whs_c = holdn;
            whs_any = true;
          } else if (whs_any && std::isfinite(holdo) && holdo <= whs_c) {
            whs_valid = false;
          }
        }
      }
    }
  }
  // Lazy rescan, overlay-substituted: the workspace twin of the rebuild
  // Engine::wns() performs when the cached minimum may have improved. Same
  // scan order and comparisons as worst_of().
  const std::size_t num_eps = e.ep_pin_.size();
  if (!wns_valid) {
    float w = 0.0f;
    bool any = false;
    for (std::size_t ep = 0; ep < num_eps; ++ep) {
      const std::int32_t oi = ws.ep_ov[ep];
      const float s = oi >= 0 ? ws.new_setup[static_cast<std::size_t>(oi)]
                              : e.slack_[eoff + ep];
      if (!std::isfinite(s)) continue;
      if (!any || s < w) {
        w = s;
        any = true;
      }
    }
    wns_c = w;
    wns_any = any;
  }
  if (hold && !whs_valid) {
    float w = 0.0f;
    bool any = false;
    for (std::size_t ep = 0; ep < num_eps; ++ep) {
      const std::int32_t oi = ws.ep_ov[ep];
      const float s = oi >= 0 ? ws.new_hold[static_cast<std::size_t>(oi)]
                              : e.hold_slack_[eoff + ep];
      if (!std::isfinite(s)) continue;
      if (!any || s < w) {
        w = s;
        any = true;
      }
    }
    whs_c = w;
    whs_any = any;
  }

  out.setup =
      SlackSummary{tns, wns_any ? static_cast<double>(wns_c) : 0.0, nviol};
  if (hold) {
    out.hold =
        SlackSummary{ths, whs_any ? static_cast<double>(whs_c) : 0.0, nhviol};
  }
  // Endpoint overrides for fold_scenario: the merged fold substitutes them
  // for this corner's baseline plane, and corner 0's are the scenario's
  // endpoint_changes.
  if (e.C_ > 1 || (corner == 0 && options_.collect_endpoints)) {
    out.overrides.reserve(nd);
    for (std::size_t i = 0; i < nd; ++i) {
      EndpointSlackChange ch;
      ch.ep = ws.dirty_eps[i];
      ch.setup = ws.new_setup[i];
      if (hold) ch.hold = ws.new_hold[i];
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
  // Settle every corner's lazy WNS/WHS caches so every (scenario, corner)
  // cell replays its deltas from the same aggregate state a sequential
  // pass would start from.
  for (CornerId c = 0; c < static_cast<CornerId>(e.C_); ++c) {
    (void)e.tns(c);
    (void)e.wns(c);
    if (e.options_.enable_hold) {
      (void)e.ths(c);
      (void)e.whs(c);
    }
  }

  const std::size_t num_scenarios = scenarios.size();
  std::vector<ScenarioResult> results(num_scenarios);
  if (num_scenarios == 0) return results;

  bool scenario_parallel = false;
  switch (options_.strategy) {
    case ScenarioStrategy::kScenarioParallel:
      scenario_parallel = true;
      break;
    case ScenarioStrategy::kLevelParallel:
      scenario_parallel = false;
      break;
    case ScenarioStrategy::kAuto:
      scenario_parallel = num_scenarios >= 4;
      break;
  }

  const std::size_t num_corners = e.C_;
  const std::size_t num_cells = num_scenarios * num_corners;
  std::vector<Cell> cells(num_cells);
  const auto cells_of = [&cells, num_corners](std::size_t s) {
    return std::span<Cell>(cells).subspan(s * num_corners, num_corners);
  };
  if (scenario_parallel) {
    // Cells, not scenarios, are the unit of dispatch, so a heavy scenario's
    // corners run on different threads. run_chunked would merge
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
