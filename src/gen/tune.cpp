#include "gen/tune.hpp"

#include <algorithm>
#include <cmath>
#include <vector>

#include "util/check.hpp"

namespace insta::gen {

double tune_clock_period(const timing::TimingGraph& graph,
                         timing::Constraints& constraints,
                         timing::ArcDelays& delays, double violate_fraction) {
  util::check(violate_fraction >= 0.0 && violate_fraction < 1.0,
              "tune_clock_period: fraction must be in [0, 1)");
  timing::Constraints probe = constraints;
  probe.clock_period = 0.0;
  ref::GoldenSta sta(graph, probe, delays);
  sta.update_full();

  // With period 0, slack(e) = -x_e where x_e is period-independent;
  // at period T the slack becomes T - x_e. Violating fraction q means
  // T below the (1-q) quantile of x.
  std::vector<double> x;
  x.reserve(sta.endpoint_slacks().size());
  for (const double s : sta.endpoint_slacks()) {
    if (std::isfinite(s)) x.push_back(-s);
  }
  util::check(!x.empty(), "tune_clock_period: no constrained endpoints");
  std::sort(x.begin(), x.end());
  const auto idx = static_cast<std::size_t>(
      std::clamp((1.0 - violate_fraction) * static_cast<double>(x.size()),
                 0.0, static_cast<double>(x.size() - 1)));
  constraints.clock_period = x[idx];
  return constraints.clock_period;
}

}  // namespace insta::gen
