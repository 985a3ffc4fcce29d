#include "gen/logic_block.hpp"

#include <algorithm>
#include <cmath>
#include <string>
#include <unordered_map>
#include <utility>

#include "util/check.hpp"

namespace insta::gen {

using netlist::CellFunc;
using netlist::CellId;
using netlist::Design;
using netlist::kNullNet;
using netlist::Library;
using netlist::NetId;
using netlist::PinId;
using util::Rng;

namespace {

/// Weighted random gate function.
CellFunc random_func(Rng& rng) {
  const double x = rng.uniform();
  if (x < 0.15) return CellFunc::kInv;
  if (x < 0.20) return CellFunc::kBuf;
  if (x < 0.40) return CellFunc::kNand2;
  if (x < 0.50) return CellFunc::kNor2;
  if (x < 0.65) return CellFunc::kAnd2;
  if (x < 0.75) return CellFunc::kOr2;
  if (x < 0.85) return CellFunc::kXor2;
  if (x < 0.90) return CellFunc::kXnor2;
  if (x < 0.95) return CellFunc::kNand3;
  return CellFunc::kAoi21;
}

/// Weighted random drive strength (mid sizes most common).
int random_drive(Rng& rng) {
  const double x = rng.uniform();
  if (x < 0.35) return 1;
  if (x < 0.70) return 2;
  if (x < 0.90) return 4;
  return 8;
}

/// A pool of candidate driver pins per rank, with unused-output tracking so
/// the generator leaves few dangling outputs.
class DriverPools {
 public:
  void add_rank() {
    all_.emplace_back();
    unused_.emplace_back();
  }
  void add(int rank, PinId pin) {
    all_[static_cast<std::size_t>(rank)].push_back(pin);
    unused_[static_cast<std::size_t>(rank)].push_back(pin);
  }
  [[nodiscard]] int num_ranks() const { return static_cast<int>(all_.size()); }
  [[nodiscard]] bool rank_empty(int rank) const {
    return all_[static_cast<std::size_t>(rank)].empty();
  }

  /// Picks a driver pin from `rank`, preferring never-used outputs with
  /// probability `unused_bias`.
  PinId pick(int rank, double unused_bias, Rng& rng) {
    auto& unused = unused_[static_cast<std::size_t>(rank)];
    if (!unused.empty() && rng.chance(unused_bias)) {
      const auto i = static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<std::int64_t>(unused.size()) - 1));
      const PinId pin = unused[i];
      unused[i] = unused.back();
      unused.pop_back();
      return pin;
    }
    const auto& all = all_[static_cast<std::size_t>(rank)];
    return all[static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(all.size()) - 1))];
  }

 private:
  std::vector<std::vector<PinId>> all_;
  std::vector<std::vector<PinId>> unused_;
};

}  // namespace

GeneratedDesign build_logic_block(const LogicBlockSpec& spec) {
  util::check(spec.num_gates > 0 && spec.depth > 0 && spec.num_ffs >= 0,
              "build_logic_block: bad spec");
  util::check(spec.num_inputs + spec.num_ffs > 0,
              "build_logic_block: need at least one startpoint");
  Rng rng(spec.seed);

  GeneratedDesign out;
  out.name = spec.name;
  out.library = std::make_unique<Library>(netlist::make_default_library());
  out.design = std::make_unique<Design>(*out.library);
  Design& d = *out.design;
  const Library& lib = *out.library;

  // Lazily created net of each driver pin.
  std::unordered_map<PinId, NetId> net_of_driver;
  auto net_for = [&](PinId driver) {
    auto it = net_of_driver.find(driver);
    if (it != net_of_driver.end()) return it->second;
    std::string name = "n";
    name += std::to_string(d.num_nets());
    const NetId n = d.add_net(std::move(name));
    d.connect_driver(n, driver);
    net_of_driver.emplace(driver, n);
    return n;
  };
  auto connect = [&](PinId driver, PinId sink) {
    d.connect_sink(net_for(driver), sink);
  };

  // ---- clock trees -----------------------------------------------------------
  const CellId clock_root = d.add_input_port("clk");
  out.constraints.clock_root = clock_root;
  const int num_domains = 1 + std::max(0, spec.num_extra_clocks);
  std::vector<CellId> domain_roots = {clock_root};
  for (int c = 1; c < num_domains; ++c) {
    const CellId root = d.add_input_port("clk" + std::to_string(c));
    domain_roots.push_back(root);
    out.constraints.extra_clocks.push_back(
        timing::ExtraClock{root, spec.extra_clock_ratio});
  }

  std::vector<CellId> ffs;
  ffs.reserve(static_cast<std::size_t>(spec.num_ffs));
  for (int i = 0; i < spec.num_ffs; ++i) {
    ffs.push_back(d.add_cell("ff" + std::to_string(i),
                             lib.find(CellFunc::kDff, 2)));
  }

  if (spec.num_ffs > 0) {
    util::check(spec.clock_fanout >= 2, "clock_fanout must be >= 2");
    int buf_idx = 0;
    // Round-robin FFs across the clock domains, one tree per domain.
    for (int domain = 0; domain < num_domains; ++domain) {
      std::vector<CellId> domain_ffs;
      for (int i = domain; i < spec.num_ffs; i += num_domains) {
        domain_ffs.push_back(ffs[static_cast<std::size_t>(i)]);
      }
      if (domain_ffs.empty()) continue;
      const int num_leaves = std::max(
          1, (static_cast<int>(domain_ffs.size()) + spec.ffs_per_clock_leaf -
              1) /
                 spec.ffs_per_clock_leaf);
      // Build buffer levels from the root until one level has enough leaves.
      std::vector<PinId> level_drivers = {
          d.output_pin(domain_roots[static_cast<std::size_t>(domain)])};
      while (static_cast<int>(level_drivers.size()) < num_leaves) {
        std::vector<PinId> next;
        for (const PinId drv : level_drivers) {
          for (int f = 0; f < spec.clock_fanout; ++f) {
            const CellId buf = d.add_cell("ckbuf" + std::to_string(buf_idx++),
                                          lib.find(CellFunc::kBuf, 8));
            connect(drv, d.input_pin(buf, 0));
            next.push_back(d.output_pin(buf));
            if (static_cast<int>(next.size()) >= num_leaves) break;
          }
          if (static_cast<int>(next.size()) >= num_leaves) break;
        }
        level_drivers = std::move(next);
      }
      // Distribute this domain's FF clock pins over its leaf buffers.
      for (std::size_t i = 0; i < domain_ffs.size(); ++i) {
        connect(level_drivers[i % level_drivers.size()],
                d.clock_pin(domain_ffs[i]));
      }
    }
  }

  // ---- rank-structured combinational logic -----------------------------------
  DriverPools pools;
  pools.add_rank();  // rank 0: startpoint sources
  for (int i = 0; i < spec.num_inputs; ++i) {
    const CellId port = d.add_input_port("in" + std::to_string(i));
    pools.add(0, d.output_pin(port));
  }
  for (const CellId ff : ffs) pools.add(0, d.output_pin(ff));

  auto pick_rank = [&](int below) {
    // rank below-1 with probability prev_rank_bias, geometric tail earlier.
    int r = below - 1;
    while (r > 0 && !rng.chance(spec.prev_rank_bias)) --r;
    while (pools.rank_empty(r)) ++r;  // never empty at below-1 by invariant
    return r;
  };

  const int gates_per_rank =
      std::max(1, spec.num_gates / spec.depth);
  int made = 0;
  for (int rank = 1; rank <= spec.depth && made < spec.num_gates; ++rank) {
    pools.add_rank();
    const int want = (rank == spec.depth) ? (spec.num_gates - made)
                                          : gates_per_rank;
    for (int gi = 0; gi < want && made < spec.num_gates; ++gi, ++made) {
      const CellFunc func = random_func(rng);
      const netlist::LibCellId lc = lib.find(func, random_drive(rng));
      const CellId cell = d.add_cell("g" + std::to_string(made), lc);
      for (int in = 0; in < netlist::num_data_inputs(func); ++in) {
        const int r = pick_rank(rank);
        connect(pools.pick(r, spec.unused_bias, rng), d.input_pin(cell, in));
      }
      pools.add(rank, d.output_pin(cell));
    }
  }
  const int last_rank = pools.num_ranks() - 1;

  // ---- endpoints --------------------------------------------------------------
  auto pick_late_driver = [&]() {
    int r = last_rank - static_cast<int>(rng.uniform_int(0, last_rank / 4));
    while (r > 0 && pools.rank_empty(r)) --r;
    return pools.pick(r, 0.9, rng);
  };
  for (const CellId ff : ffs) {
    connect(pick_late_driver(), d.input_pin(ff, 0));
  }
  for (int i = 0; i < spec.num_outputs; ++i) {
    const CellId port = d.add_output_port("out" + std::to_string(i));
    connect(pick_late_driver(), d.input_pin(port, 0));
  }

  // ---- net length hints ---------------------------------------------------------
  for (std::size_t n = 0; n < d.num_nets(); ++n) {
    netlist::Net& net = d.net(static_cast<NetId>(n));
    const double fanout_term =
        1.0 + 0.3 * static_cast<double>(net.sinks.size() > 1
                                            ? net.sinks.size() - 1
                                            : 0);
    net.length_hint = spec.net_length_mean * fanout_term *
                      std::exp(rng.normal(0.0, spec.net_length_spread));
  }

  // ---- load-matched drive assignment ------------------------------------------
  if (spec.presize) {
    // Fixed-point iteration: drives determine input caps, which determine
    // loads, which determine drives. Converges in a handful of passes
    // (drive choices stabilize once loads do); capped defensively.
    const double c_per_um = 0.15;  // must match DelayModelParams defaults
    bool changed = true;
    for (int iter = 0; iter < 8 && changed; ++iter) {
      changed = false;
      for (std::size_t c = 0; c < d.num_cells(); ++c) {
        const auto id = static_cast<netlist::CellId>(c);
        const netlist::LibCell& lc = d.libcell_of(id);
        if (netlist::is_sequential(lc.func) || !netlist::has_output(lc.func) ||
            netlist::num_data_inputs(lc.func) == 0 ||
            d.cell(id).name.rfind("ckbuf", 0) == 0) {
          continue;
        }
        const PinId out = d.output_pin(id);
        const NetId net = d.pin(out).net;
        if (net == kNullNet) continue;
        const netlist::Net& n = d.net(net);
        double load = c_per_um * n.length_hint;
        for (const PinId s : n.sinks) load += d.libcell_of(d.pin(s).cell).input_cap;
        // Smallest drive with effort (load / per-drive input cap) within
        // target; per-drive cap comes from the X1 member of the family.
        const auto family = lib.family(lc.func);
        const double cap_x1 = lib.cell(family.front()).input_cap;
        netlist::LibCellId pick = family.back();
        for (const netlist::LibCellId cand : family) {
          const double eff = load / (cap_x1 * lib.cell(cand).drive);
          if (eff <= spec.target_effort) {
            pick = cand;
            break;
          }
        }
        if (pick != d.cell(id).libcell) {
          d.resize_cell(id, pick);
          changed = true;
        }
      }
    }
  }

  // ---- exceptions -----------------------------------------------------------------
  auto random_sp_pin = [&]() {
    const auto inputs = d.input_ports();
    const auto first_data = static_cast<std::int64_t>(num_domains);
    if (!ffs.empty() &&
        (static_cast<std::int64_t>(inputs.size()) <= first_data ||
         rng.chance(0.8))) {
      return d.output_pin(ffs[static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<std::int64_t>(ffs.size()) - 1))]);
    }
    // Skip the clock roots (created first) when sampling input ports.
    const auto i = static_cast<std::size_t>(rng.uniform_int(
        first_data, static_cast<std::int64_t>(inputs.size()) - 1));
    return d.output_pin(inputs[i]);
  };
  auto random_ep_pin = [&]() {
    const std::size_t total = ffs.size() + d.output_ports().size();
    const auto i = static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(total) - 1));
    if (i < ffs.size()) return d.input_pin(ffs[i], 0);
    return d.input_pin(d.output_ports()[i - ffs.size()], 0);
  };
  const auto num_eps = static_cast<double>(ffs.size() + d.output_ports().size());
  const int num_fp = static_cast<int>(spec.false_path_frac * num_eps);
  const int num_mcp = static_cast<int>(spec.multicycle_frac * num_eps);
  for (int i = 0; i < num_fp; ++i) {
    timing::TimingException e;
    e.kind = timing::ExceptionKind::kFalsePath;
    e.sp_pin = random_sp_pin();
    e.ep_pin = random_ep_pin();
    out.constraints.exceptions.push_back(e);
  }
  for (int i = 0; i < num_mcp; ++i) {
    timing::TimingException e;
    e.kind = timing::ExceptionKind::kMulticycle;
    e.sp_pin = random_sp_pin();
    e.ep_pin = random_ep_pin();
    e.cycles = 2;
    out.constraints.exceptions.push_back(e);
  }

  out.constraints.input_arrival_mu = spec.input_arrival_mu;
  out.constraints.input_arrival_sigma = spec.input_arrival_sigma;
  out.constraints.output_margin = spec.output_margin;

  d.validate();
  return out;
}

}  // namespace insta::gen
