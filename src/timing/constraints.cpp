#include "timing/constraints.hpp"

#include "util/check.hpp"

namespace insta::timing {

ExceptionTable::ExceptionTable(const TimingGraph& graph,
                               std::span<const TimingException> exceptions)
    : named_(graph.startpoints().size(), 0) {
  for (const TimingException& e : exceptions) {
    const StartpointId sp = graph.startpoint_of_pin(e.sp_pin);
    const EndpointId ep = graph.endpoint_of_pin(e.ep_pin);
    util::check(sp != kNullStartpoint, "exception sp_pin is not a startpoint");
    util::check(ep != kNullEndpoint, "exception ep_pin is not an endpoint");
    named_[static_cast<std::size_t>(sp)] = 1;
    Info& info = table_[key(sp, ep)];
    if (e.kind == ExceptionKind::kFalsePath) {
      info.false_path = true;
    } else {
      util::check(e.cycles >= 1, "multicycle exception needs cycles >= 1");
      info.cycles = e.cycles;
    }
  }
}

bool ExceptionTable::is_false_path(StartpointId sp, EndpointId ep) const {
  const auto it = table_.find(key(sp, ep));
  return it != table_.end() && it->second.false_path;
}

double ExceptionTable::required_shift(StartpointId sp, EndpointId ep,
                                      double period) const {
  const auto it = table_.find(key(sp, ep));
  if (it == table_.end()) return 0.0;
  return static_cast<double>(it->second.cycles - 1) * period;
}

}  // namespace insta::timing
