#include "size/insta_buffer.hpp"

#include <algorithm>
#include <unordered_set>

#include "core/engine.hpp"
#include "ref/golden_sta.hpp"
#include "timing/delay_calc.hpp"
#include "util/check.hpp"
#include "util/timer.hpp"

namespace insta::size {

using netlist::CellFunc;
using netlist::CellId;
using netlist::NetId;
using netlist::PinId;
using timing::ArcId;
using timing::ArcRecord;

CellId insert_buffer(netlist::Design& design, NetId net, PinId sink,
                     netlist::LibCellId buffer_libcell, double stub_fraction) {
  util::check(design.library().cell(buffer_libcell).func == CellFunc::kBuf,
              "insert_buffer: libcell must be a buffer");
  const netlist::Net& old_net = design.net(net);
  const PinId driver = old_net.driver;
  util::check(driver != netlist::kNullPin, "insert_buffer: undriven net");
  const double old_hint = old_net.length_hint;

  design.disconnect_sink(net, sink);
  const CellId buf = design.add_cell(
      "ibuf" + std::to_string(design.num_cells()), buffer_libcell);
  design.connect_sink(net, design.input_pin(buf, 0));
  const NetId stub = design.add_net("ibufn" + std::to_string(design.num_nets()));
  design.connect_driver(stub, design.output_pin(buf));
  design.connect_sink(stub, sink);
  design.net(stub).length_hint = old_hint * stub_fraction;
  // The buffer physically splits the branch: driver-to-buffer gets the
  // remainder of the wire, the stub gets the tail.
  design.set_sink_length(net, design.input_pin(buf, 0),
                         old_hint * (1.0 - stub_fraction));

  // Place the buffer between driver and sink (harmless when unplaced).
  const netlist::Cell& dc = design.cell(design.pin(driver).cell);
  const netlist::Cell& sc = design.cell(design.pin(sink).cell);
  netlist::Cell& bc = design.cell(buf);
  bc.x = 0.5 * (dc.x + sc.x);
  bc.y = 0.5 * (dc.y + sc.y);
  return buf;
}

InstaBuffer::InstaBuffer(netlist::Design& design,
                         const timing::Constraints& constraints,
                         InstaBufferOptions options)
    : design_(&design), constraints_(&constraints), options_(options) {}

BufferResult InstaBuffer::run() {
  BufferResult res;
  util::Stopwatch total;
  const netlist::LibCellId buf_lc =
      design_->library().find(CellFunc::kBuf, options_.buffer_drive);
  util::check(buf_lc != netlist::kNullLibCell,
              "InstaBuffer: no buffer at the requested drive");

  double cur_tns = 0.0;
  bool first = true;
  for (int pass = 0; pass < options_.max_passes; ++pass) {
    // Each pass rebuilds the timing world: structural edits invalidate the
    // graph, so INSTA is re-initialized (paper Fig. 2's one-time init).
    const netlist::Design snapshot = *design_;
    timing::TimingGraph graph(*design_, constraints_->clock_root);
    timing::DelayCalculator calc(*design_, graph);
    timing::ArcDelays delays;
    calc.compute_all(delays);
    ref::GoldenSta sta(graph, *constraints_, delays);
    sta.update_full();

    if (first) {
      res.initial_wns = sta.wns();
      res.initial_tns = sta.tns();
      res.initial_violations = sta.num_violations();
      cur_tns = res.initial_tns;
      first = false;
    }

    core::EngineOptions eopt;
    eopt.top_k = options_.top_k;
    eopt.tau = options_.tau;
    core::Engine engine(sta, eopt);
    engine.run_forward();
    engine.run_backward(core::GradientMetric::kTns);

    // Rank buffering candidates: critical net arcs with enough wire that
    // insulating the sink pays for a buffer delay.
    struct Candidate {
      double score;
      NetId net;
      PinId sink;
    };
    std::vector<Candidate> cands;
    const netlist::LibCell& buf = design_->library().cell(buf_lc);
    const timing::DelayModelParams& dm = calc.params();
    for (std::size_t a = 0; a < graph.num_arcs(); ++a) {
      const ArcRecord& rec = graph.arc(static_cast<ArcId>(a));
      if (rec.kind != timing::ArcKind::kNet) continue;
      if (graph.is_clock_network(rec.from) || graph.is_clock_network(rec.to)) {
        continue;
      }
      const float g = engine.arc_gradient(static_cast<ArcId>(a));
      if (g <= options_.grad_threshold) continue;
      const double len = design_->net(rec.net).length_hint;
      if (len < options_.min_length) continue;
      // Predicted sink-path gain: the branch splits into driver->buffer
      // wire, the buffer's own delay, and a short stub — versus the single
      // long RC branch before (the quadratic wire term is what the split
      // wins back).
      const double old_mu = std::max(delays.mu[0][a], delays.mu[1][a]);
      const double head_len = len * (1.0 - options_.stub_fraction);
      const double stub_len = len * options_.stub_fraction;
      const double sink_cap = design_->libcell_of(design_->pin(rec.to).cell)
                                  .input_cap;
      const double head_mu =
          dm.r_per_um * head_len *
              (dm.c_per_um * head_len * 0.5 + buf.input_cap) +
          dm.min_net_delay;
      const double stub_mu =
          dm.r_per_um * stub_len * (dm.c_per_um * stub_len * 0.5 + sink_cap) +
          dm.min_net_delay;
      const double stub_load = dm.c_per_um * stub_len + sink_cap;
      const double buf_mu =
          std::max(buf.intrinsic[0], buf.intrinsic[1]) +
          std::max(buf.drive_res[0], buf.drive_res[1]) * stub_load +
          buf.slew_sens * calc.slew(rec.to, netlist::RiseFall::kRise);
      // Driver-side penalty: the buffer's input cap replaces the sink's on
      // the original net, slowing the driver for every other path through it.
      const netlist::CellId drv_cell = design_->pin(rec.from).cell;
      const netlist::LibCell& drv_lc = design_->libcell_of(drv_cell);
      const double cap_delta = buf.input_cap - sink_cap;
      const double penalty =
          std::max(0.0, cap_delta) *
          std::max(drv_lc.drive_res[0], drv_lc.drive_res[1]);
      const double gain = old_mu - (head_mu + stub_mu + buf_mu) - penalty;
      if (gain <= 0.0) continue;
      cands.push_back(Candidate{static_cast<double>(g) * gain, rec.net, rec.to});
    }
    if (cands.empty()) break;
    std::sort(cands.begin(), cands.end(),
              [](const Candidate& x, const Candidate& y) {
                return x.score > y.score;
              });

    // One buffer per net per pass; top candidates first.
    std::unordered_set<NetId> touched;
    int inserted = 0;
    for (const Candidate& c : cands) {
      if (inserted >= options_.max_buffers_per_pass) break;
      if (!touched.insert(c.net).second) continue;
      insert_buffer(*design_, c.net, c.sink, buf_lc, options_.stub_fraction);
      ++inserted;
    }
    if (inserted == 0) break;

    // Re-measure; keep the pass only if TNS genuinely improved.
    timing::TimingGraph graph2(*design_, constraints_->clock_root);
    timing::DelayCalculator calc2(*design_, graph2);
    timing::ArcDelays delays2;
    calc2.compute_all(delays2);
    ref::GoldenSta sta2(graph2, *constraints_, delays2);
    sta2.update_full();
    if (sta2.tns() < cur_tns + options_.min_tns_gain) {
      *design_ = snapshot;  // roll the whole pass back
      break;
    }
    cur_tns = sta2.tns();
    res.buffers_inserted += inserted;
    ++res.passes_kept;
  }

  // Final metrics on the committed design.
  timing::TimingGraph graph(*design_, constraints_->clock_root);
  timing::DelayCalculator calc(*design_, graph);
  timing::ArcDelays delays;
  calc.compute_all(delays);
  ref::GoldenSta sta(graph, *constraints_, delays);
  sta.update_full();
  res.final_wns = sta.wns();
  res.final_tns = sta.tns();
  res.final_violations = sta.num_violations();
  res.runtime_sec = total.elapsed_sec();
  return res;
}

}  // namespace insta::size
