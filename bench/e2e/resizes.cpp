#include "resizes.hpp"

#include <algorithm>
#include <limits>
#include <numeric>
#include <utility>

#include "util/rng.hpp"

namespace insta::e2e {

std::vector<gen::Resize> depth_spread_resizes(const netlist::Design& design,
                                              const timing::TimingGraph& graph,
                                              std::uint64_t seed,
                                              std::size_t count,
                                              double skip_shallow) {
  const netlist::Library& lib = design.library();
  std::vector<std::pair<int, netlist::CellId>> cells;  // (level, cell)
  std::size_t min_alternatives = std::numeric_limits<std::size_t>::max();
  for (std::size_t c = 0; c < design.num_cells(); ++c) {
    const auto id = static_cast<netlist::CellId>(c);
    const netlist::LibCell& lc = design.libcell_of(id);
    if (netlist::is_sequential(lc.func) || !netlist::has_output(lc.func) ||
        netlist::num_data_inputs(lc.func) == 0 || graph.is_clock_cell(id) ||
        lib.family(lc.func).size() < 2) {
      continue;
    }
    cells.emplace_back(graph.level_of(design.output_pin(id)), id);
    min_alternatives =
        std::min(min_alternatives, lib.family(lc.func).size() - 1);
  }
  std::sort(cells.begin(), cells.end());
  cells.erase(cells.begin(),
              cells.begin() + static_cast<std::ptrdiff_t>(
                                  skip_shallow *
                                  static_cast<double>(cells.size())));
  std::vector<gen::Resize> out;
  if (cells.empty()) return out;

  const std::size_t n = cells.size();
  util::Rng rng(seed);
  // Golden-ratio stride: consecutive picks land far apart in depth order.
  std::size_t stride = std::max<std::size_t>(1, n * 618 / 1000) | 1;
  while (std::gcd(stride, n) != 1) stride += 2;
  const std::size_t offset = rng() % n;
  std::vector<std::uint64_t> first_alt(n);
  for (std::uint64_t& a : first_alt) a = rng();

  count = std::min(count, n * min_alternatives);
  out.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    const std::size_t k = (offset + i * stride) % n;
    const netlist::CellId cell = cells[k].second;
    const netlist::LibCell& lc = design.libcell_of(cell);
    const auto family = lib.family(lc.func);
    // The (i / n)-th alternative after this cell's seeded first choice,
    // skipping the cell's current drive.
    const std::size_t alt = (first_alt[k] + i / n) % (family.size() - 1);
    std::size_t seen = 0;
    for (const netlist::LibCellId cand : family) {
      if (cand == lc.id) continue;
      if (seen++ == alt) {
        out.push_back({cell, cand});
        break;
      }
    }
  }
  return out;
}

std::vector<std::size_t> seeded_order(std::size_t n, std::uint64_t seed) {
  std::vector<std::size_t> order(n);
  std::iota(order.begin(), order.end(), std::size_t{0});
  util::Rng rng(seed);
  for (std::size_t i = n; i > 1; --i) {
    std::swap(order[i - 1], order[rng() % i]);
  }
  return order;
}

}  // namespace insta::e2e
