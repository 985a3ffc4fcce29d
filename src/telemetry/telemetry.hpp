#pragma once

// Umbrella header for the telemetry subsystem: metrics registry, tracing,
// and the INSTA_TRACE_SCOPE convenience macro. Instrumentation sites should
// include this header only.
//
// Adding a counter to a hot path:
//   1. Register a handle once (static local or member):
//        static telemetry::Counter c =
//            telemetry::MetricsRegistry::global().counter("engine.pins");
//   2. Bump it: c.add(n);

#include "telemetry/metrics.hpp"
#include "telemetry/trace.hpp"
