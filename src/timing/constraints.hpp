#pragma once

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "netlist/design.hpp"
#include "timing/graph.hpp"
#include "timing/types.hpp"

namespace insta::timing {

/// Kind of a timing exception.
enum class ExceptionKind : std::uint8_t { kFalsePath, kMulticycle };

/// One timing exception, specified from a startpoint source pin (FF Q pin or
/// primary-input pin) to an endpoint pin (FF D pin or primary-output pin).
struct TimingException {
  ExceptionKind kind = ExceptionKind::kFalsePath;
  netlist::PinId sp_pin = netlist::kNullPin;
  netlist::PinId ep_pin = netlist::kNullPin;
  int cycles = 2;  ///< multicycle only: the path gets (cycles-1) extra periods
};

/// An additional clock domain: its own tree root and a period expressed as
/// a ratio of the primary clock period (so tune_clock_period scales every
/// domain together).
struct ExtraClock {
  netlist::CellId root = netlist::kNullCell;  ///< PI driving this domain's tree
  double period_ratio = 1.0;  ///< domain period = ratio * clock_period
};

/// Timing constraints of a design. Setup and hold analysis; one primary
/// clock plus optional extra domains. Cross-domain paths are analyzed
/// synchronously against the capture domain's period with zero CPPR credit
/// (distinct trees share no common path).
struct Constraints {
  double clock_period = 1000.0;  ///< ps, the primary clock
  netlist::CellId clock_root = netlist::kNullCell;  ///< PI driving the clock tree
  std::vector<ExtraClock> extra_clocks;  ///< additional domains
  double input_arrival_mu = 0.0;     ///< arrival mean at data PIs, ps
  double input_arrival_sigma = 0.0;  ///< arrival sigma at data PIs, ps
  double output_margin = 0.0;  ///< required at POs = period - margin, ps
  double nsigma = 3.0;         ///< POCV corner multiplier (paper uses 3.0)
  std::vector<TimingException> exceptions;

  /// All clock tree roots: the primary first, then the extra domains.
  [[nodiscard]] std::vector<netlist::CellId> clock_roots() const {
    std::vector<netlist::CellId> roots;
    if (clock_root != netlist::kNullCell) roots.push_back(clock_root);
    for (const ExtraClock& c : extra_clocks) {
      if (c.root != netlist::kNullCell) roots.push_back(c.root);
    }
    return roots;
  }

  /// Period of domain `index` (0 = primary, 1.. = extra_clocks order), ps.
  [[nodiscard]] double period_of_domain(int index) const {
    if (index <= 0) return clock_period;
    return clock_period *
           extra_clocks[static_cast<std::size_t>(index - 1)].period_ratio;
  }
};

/// Fast (startpoint, endpoint) lookup of exceptions, resolved against a
/// TimingGraph. Both the golden engine and INSTA consult this table when
/// evaluating endpoint slacks, mirroring how INSTA clones exception data
/// from the reference tool during initialization.
class ExceptionTable {
 public:
  /// Resolves the exceptions' pins to startpoint/endpoint ids. Exceptions
  /// naming pins that are not startpoints/endpoints are rejected.
  ExceptionTable(const TimingGraph& graph,
                 std::span<const TimingException> exceptions);

  /// True if the (sp, ep) pair is declared a false path.
  [[nodiscard]] bool is_false_path(StartpointId sp, EndpointId ep) const;

  /// Extra required time for the pair: (cycles-1)*period for multicycle
  /// pairs, 0 otherwise (and 0 for false paths; callers skip those first).
  [[nodiscard]] double required_shift(StartpointId sp, EndpointId ep,
                                      double period) const;

  /// True if some exception names `sp` as its startpoint, whatever the
  /// endpoint: such a startpoint's required times may be shifted or removed.
  [[nodiscard]] bool names_startpoint(StartpointId sp) const {
    return named_[static_cast<std::size_t>(sp)] != 0;
  }

  /// Number of resolved exception pairs.
  [[nodiscard]] std::size_t size() const { return table_.size(); }

 private:
  struct Info {
    bool false_path = false;
    int cycles = 1;
  };
  static std::uint64_t key(StartpointId sp, EndpointId ep) {
    return (static_cast<std::uint64_t>(static_cast<std::uint32_t>(sp)) << 32) |
           static_cast<std::uint32_t>(ep);
  }
  std::unordered_map<std::uint64_t, Info> table_;
  std::vector<char> named_;  ///< per startpoint: named by an exception
};

}  // namespace insta::timing
