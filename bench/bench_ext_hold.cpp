// Extension experiment: min-mode (hold) analysis — the other half of
// signoff STA that the paper's setup-only evaluation omits. Mirrors the
// Table I correlation protocol for hold slacks: INSTA's early Top-K
// propagation vs the golden engine's exact per-startpoint minima.

#include <cmath>
#include <cstdio>
#include <vector>

#include "bench_common.hpp"
#include "core/engine.hpp"
#include "gen/presets.hpp"
#include "util/stats.hpp"
#include "util/table.hpp"

int main() {
  using namespace insta;
  bench::print_header(
      "Extension: hold (min-mode) correlation — INSTA early Top-K vs the\n"
      "exact reference, on the Table I blocks (TopK=32, setup+hold).");

  util::Table table({"design", "hold corr", "avg |mm| ps", "worst |mm| ps",
                     "#hold vio", "fwd setup+hold (s)"});
  auto specs = gen::table1_block_specs();
  specs.resize(3);  // the three largest are representative and keep this fast
  for (const auto& spec : specs) {
    // Build with hold enabled (bench_common's bundle is setup-only).
    gen::GeneratedDesign gd = gen::build_logic_block(spec);
    timing::TimingGraph graph(*gd.design, gd.constraints.clock_root);
    timing::DelayCalculator calc(*gd.design, graph);
    timing::ArcDelays delays;
    calc.compute_all(delays);
    gen::tune_clock_period(graph, gd.constraints, delays, 0.08);
    ref::GoldenOptions gopt;
    gopt.enable_hold = true;
    ref::GoldenSta sta(graph, gd.constraints, delays, gopt);
    sta.update_full();

    core::EngineOptions eopt;
    eopt.top_k = 32;
    eopt.enable_hold = true;
    core::Engine engine(sta, eopt);
    engine.run_forward();
    util::Stopwatch sw;
    engine.run_forward();
    const double fwd = sw.elapsed_sec();

    std::vector<double> a, b;
    for (std::size_t e = 0; e < graph.endpoints().size(); ++e) {
      const double g = sta.hold_slack(static_cast<timing::EndpointId>(e));
      const float m =
          engine.endpoint_hold_slack(static_cast<timing::EndpointId>(e));
      if (std::isfinite(g) && std::isfinite(m)) {
        a.push_back(g);
        b.push_back(static_cast<double>(m));
      }
    }
    const util::MismatchStats mm = util::mismatch(a, b);
    table.add_row({spec.name, util::format_correlation(util::pearson(a, b)),
                   util::fmt("%.2e", mm.avg_abs),
                   util::fmt("%.3f", mm.max_abs),
                   std::to_string(sta.num_hold_violations()),
                   util::fmt("%.3f", fwd)});
  }
  std::fputs(table.str().c_str(), stdout);
  return 0;
}
