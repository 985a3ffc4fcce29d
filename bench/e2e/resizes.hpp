#pragma once

// The ECO candidate populations of the resize-driven workloads.
//
// What-if cost is heavy-tailed: on the Fig. 7 block the costliest 5% of
// random resizes do half of all frontier work, so two random samples of a
// few hundred candidates differ by about 10% in total cost. Each workload
// therefore draws a fixed population (the same for every seed) and the seed
// only orders it: runs with different seeds do the same work in a
// different sequence.

#include <cstdint>
#include <vector>

#include "gen/changelist.hpp"
#include "netlist/design.hpp"
#include "timing/graph.hpp"

namespace insta::e2e {

/// `count` distinct gate resizes, spread evenly over logic depth. A what-if's
/// cost falls about 100x from the shallowest resizable cells (large fanout
/// cones) to the deepest, so uniform random picks make per-run averages
/// swing with how many shallow cells a seed happens to draw. This stream
/// orders the resizable cells (the set gen::random_changelist draws from) by
/// the level of their output pin and walks that order with a stride
/// coprime to its length from a seeded offset: every prefix samples all
/// depths in proportion, and the seed picks which cells and which new drive
/// strengths. After every cell was visited once the walk repeats with the
/// next alternative drive, so (cell, libcell) pairs stay distinct; the
/// stream ends early once those run out.
///
/// `skip_shallow` drops that share of the shallowest resizable cells first;
/// deep cells have small fanout cones, so their what-ifs are cheap.
[[nodiscard]] std::vector<gen::Resize> depth_spread_resizes(
    const netlist::Design& design, const timing::TimingGraph& graph,
    std::uint64_t seed, std::size_t count, double skip_shallow = 0.0);

/// Seed of every workload's candidate population.
inline constexpr std::uint64_t kPopulationSeed = 2025;

/// A seeded permutation of [0, n).
[[nodiscard]] std::vector<std::size_t> seeded_order(std::size_t n,
                                                    std::uint64_t seed);

}  // namespace insta::e2e
