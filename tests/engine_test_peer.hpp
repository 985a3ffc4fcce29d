#pragma once

// Test-only control of how an Engine splits its loops onto the thread
// pool. Product engines always use the defaults; tests build engines here
// to pin the serial loops, or to push a tiny design through the pool
// kernels that only large levels reach otherwise.

#include <utility>

#include "core/engine.hpp"
#include "ref/golden_sta.hpp"

namespace insta::core {

struct EngineTestPeer {
  /// Every loop, the constructor's plane fill included, inline on the
  /// calling thread.
  [[nodiscard]] static Engine serial(const ref::GoldenSta& reference,
                                     EngineOptions options = {}) {
    Engine::Parallelism par;
    par.enabled = false;
    return Engine(reference, std::move(options), par);
  }

  /// Every level, frontier, endpoint and backward loop on the pool in
  /// single-item chunks, however small.
  [[nodiscard]] static Engine pooled(const ref::GoldenSta& reference,
                                     EngineOptions options = {}) {
    Engine::Parallelism par;
    par.threshold = 0;
    par.pin_grain = 1;
    par.endpoint_grain = 1;
    return Engine(reference, std::move(options), par);
  }
};

}  // namespace insta::core
