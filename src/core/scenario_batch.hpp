#pragma once

#include <cstdint>
#include <limits>
#include <memory>
#include <span>
#include <vector>

#include "core/engine.hpp"
#include "timing/types.hpp"
#include "util/mutex.hpp"
#include "util/thread_annotations.hpp"

namespace insta::core {

struct ScenarioBatchOptions {
  /// Also record each re-evaluated endpoint's scenario slack in
  /// ScenarioResult::endpoint_changes (the sparse analogue of
  /// Engine::endpoint_slacks for a hypothetical child engine).
  bool collect_endpoints = false;
};

/// Scenario slack of one endpoint the scenario's frontier reached.
struct EndpointSlackChange {
  timing::EndpointId ep = timing::kNullEndpoint;
  float setup = 0.0f;
  /// +infinity when the engine was built without enable_hold.
  float hold = std::numeric_limits<float>::infinity();
};

/// Everything evaluate() reports about one scenario. A scenario's delta-set
/// is broadcast across every engine corner (the corner × delta-set cross
/// product): per-corner summaries land in setup_by_corner/hold_by_corner,
/// and setup/hold hold the cross-corner merged view (with one corner the
/// merged view IS corner 0, so single-corner callers read setup/hold
/// unchanged).
struct ScenarioResult {
  /// Cross-corner merged setup metrics (see Engine::merged_summary).
  SlackSummary setup;
  /// Zeros when the engine was built without enable_hold.
  SlackSummary hold;
  /// Per-corner summaries, indexed by CornerId.
  std::vector<SlackSummary> setup_by_corner;
  /// Empty when the engine was built without enable_hold.
  std::vector<SlackSummary> hold_by_corner;
  std::uint64_t frontier_pins = 0;       ///< pins re-merged on overlays
  std::uint64_t early_terminations = 0;  ///< re-merged pins left unchanged
  std::uint64_t endpoints_evaluated = 0;
  /// Copy-on-write overlay footprint of this scenario, summed over
  /// corners: private Top-K slots, delay overrides, startpoint overrides.
  std::size_t overlay_bytes = 0;
  /// Filled when ScenarioBatchOptions::collect_endpoints. Corner 0's view
  /// (the overlay frontier is corner-independent; per-corner endpoint
  /// slacks beyond corner 0 are a summary-level feature).
  std::vector<EndpointSlackChange> endpoint_changes;
};

/// Batched what-if evaluator: answers B independent "what if I applied this
/// delta-set?" queries against one parent Engine without ever mutating it.
///
/// Each scenario runs the engine's frontier-sparse kernel against a
/// copy-on-write overlay of the Top-K stores: a pin whose merged list
/// changes gets a private overlay slot; every clean pin reads the shared
/// baseline arrays. Memory is O(baseline + sum of scenario frontiers)
/// instead of B full engine clones, and per-scenario results — TNS, WNS,
/// violation counts, endpoint slacks — are bit-identical to sequentially
/// annotating the parent and calling run_forward_incremental() (the merge
/// and evaluation kernels are literally the same templates, and the delta
/// folds replay in the same order).
///
///   ScenarioBatch batch(engine);
///   std::vector<ScenarioResult> r = batch.evaluate(candidate_delta_sets);
///
/// The parent engine must be timing-clean for the duration of evaluate().
/// Workspaces are pooled and reused across evaluate() calls, so a batch
/// object held across an optimization loop allocates only on high-water
/// growth.
class ScenarioBatch {
 public:
  explicit ScenarioBatch(const Engine& engine,
                         ScenarioBatchOptions options = {});
  ~ScenarioBatch();
  ScenarioBatch(const ScenarioBatch&) = delete;
  ScenarioBatch& operator=(const ScenarioBatch&) = delete;

  /// Evaluates B delta-sets; result i corresponds to scenarios[i]. Every
  /// delta-set is validated up front (Engine::check_deltas) and the first
  /// error aborts the batch with a CheckError naming the scenario.
  ///
  /// Dispatch follows B: at B >= 4 every (scenario, corner) cell is one
  /// pool task that propagates serially; below that the cells run one at
  /// a time, each on the engine's level-parallel kernels. Results are the
  /// same bytes either way.
  ///
  /// When `flow_ids` is non-empty it must be scenario-parallel (size B):
  /// the "scenario.run" trace span of each of scenario i's (scenario,
  /// corner) cells emits a flow step with flow_ids[i], linking the span
  /// back to the originating request in the Chrome trace. Ids of 0 are
  /// skipped; purely observational — results are unaffected.
  [[nodiscard]] std::vector<ScenarioResult> evaluate(
      std::span<const std::span<const timing::ArcDelta>> scenarios,
      std::span<const std::uint64_t> flow_ids = {});

  /// Convenience overload for owning containers.
  [[nodiscard]] std::vector<ScenarioResult> evaluate(
      const std::vector<std::vector<timing::ArcDelta>>& scenarios);

  [[nodiscard]] const Engine& engine() const { return *engine_; }
  [[nodiscard]] const ScenarioBatchOptions& options() const {
    return options_;
  }

 private:
  struct Workspace;
  struct OverlayValues;
  struct OverlayStore;
  struct Cell;

  Workspace& acquire_workspace();
  void release_workspace(Workspace& ws);
  /// One (scenario, corner) cell of the cross product, the unit of
  /// dispatch: the engine's annotate and frontier walk against one corner's
  /// planes through a copy-on-write overlay, from a reset workspace, so
  /// each cell replays exactly an independent single-corner pass. The
  /// caller resets `ws` afterwards.
  void run_scenario_corner(std::span<const timing::ArcDelta> deltas,
                           Workspace& ws, bool level_parallel, CornerId corner,
                           std::uint64_t flow_id, Cell& out) const;
  /// Folds one scenario's C finished cells, in corner order, into its
  /// ScenarioResult, using `ws` for scratch.
  void fold_scenario(std::span<Cell> cells, Workspace& ws,
                     ScenarioResult& out) const;

  const Engine* engine_;
  ScenarioBatchOptions options_;
  /// Workspace pool: every cell-pulling thread checks one out. All owned
  /// here; free_list_ holds the idle ones.
  util::Mutex pool_mutex_{"core.scenario_pool", util::lockrank::kScenarioPool};
  std::vector<std::unique_ptr<Workspace>> workspaces_
      INSTA_GUARDED_BY(pool_mutex_);
  std::vector<Workspace*> free_list_ INSTA_GUARDED_BY(pool_mutex_);
};

}  // namespace insta::core
