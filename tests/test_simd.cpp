// The SIMD dispatch contract (DESIGN.md §14): the scalar and AVX2 kernel
// flavors are bit-identical — same Top-K bytes, same counters, same
// gradients — across ragged list sizes, empty lists, and every K.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <random>
#include <string>
#include <vector>

#include "core/engine.hpp"
#include "core/topk.hpp"
#include "core/topk_simd.hpp"
#include "gen/changelist.hpp"
#include "gen/logic_block.hpp"
#include "gen/presets.hpp"
#include "gen/tune.hpp"
#include "ref/golden_sta.hpp"
#include "timing/delay_calc.hpp"
#include "util/simd.hpp"

namespace insta {
namespace {

bool avx2_available() {
  return util::simd::compiled_avx2() && util::simd::cpu_has_avx2();
}

// ---- kernel-level property tests --------------------------------------------

/// Shapes of the randomized merge inputs.
struct MergeGen {
  /// Small-integer mu/sigma/delays with zero arc variance, so arrivals are
  /// exact and many candidates tie on arrival with different mu/sigma.
  bool ties = false;
  /// Parent entries whose mu is NaN, -inf or +inf.
  bool specials = false;
  /// Up to this many leading arcs have empty parent lists.
  int max_empty_prefix = 0;
  int max_arcs = 12;
};

/// One randomized merge workload: parents with ragged counts (including
/// empty lists) in stride-padded SoA planes. Tags are unique within each
/// parent list — the engine's invariant — and overlap across parents, so
/// the in-list update path is exercised.
struct MergeInput {
  std::vector<float> parr, pmu, psig;
  std::vector<std::int32_t> psp;
  std::vector<core::MergeArc> arcs;

  MergeInput(std::mt19937& rng, std::int32_t k, const MergeGen& gen) {
    const std::size_t stride =
        (static_cast<std::size_t>(k) + 7) & ~std::size_t{7};
    std::uniform_real_distribution<float> val(-500.0f, 500.0f);
    std::uniform_real_distribution<float> dly(1.0f, 40.0f);
    const int num_arcs =
        1 + static_cast<int>(rng() % static_cast<unsigned>(gen.max_arcs));
    const int empty_prefix =
        static_cast<int>(rng() % static_cast<unsigned>(gen.max_empty_prefix + 1));
    arcs.resize(static_cast<std::size_t>(num_arcs));
    parr.assign(static_cast<std::size_t>(num_arcs) * stride, 0.0f);
    pmu = parr;
    psig = parr;
    psp.assign(parr.size(), -1);
    std::vector<std::int32_t> pool(static_cast<std::size_t>(2 * k + 1));
    for (std::size_t t = 0; t < pool.size(); ++t) {
      pool[t] = static_cast<std::int32_t>(t);
    }
    const float kSpecials[] = {std::numeric_limits<float>::quiet_NaN(),
                               -std::numeric_limits<float>::infinity(),
                               std::numeric_limits<float>::infinity()};
    for (int a = 0; a < num_arcs; ++a) {
      // Ragged counts: empty, partial, and full lists all occur.
      const auto cnt = (a < empty_prefix)
                           ? 0
                           : static_cast<std::int32_t>(rng() % (k + 1));
      std::shuffle(pool.begin(), pool.end(), rng);
      struct Entry {
        float arr, mu, sig;
      };
      std::vector<Entry> es(static_cast<std::size_t>(cnt));
      for (Entry& e : es) {
        if (gen.ties) {
          e.mu = static_cast<float>(rng() % 21);
          e.sig = static_cast<float>(rng() % 5);
        } else {
          e.mu = val(rng);
          e.sig = 0.5f + 0.1f * dly(rng);
        }
        if (gen.specials && rng() % 8 == 0) e.mu = kSpecials[rng() % 3];
        e.arr = e.mu + 3.0f * e.sig;
      }
      // Descending late arrival, as the engine's lists are: late-mode
      // candidates then mostly keep their order (the seed step's shift
      // loop stops at once), early-mode ones mostly reverse it. NaN sorts
      // last.
      const auto key = [](const Entry& e) {
        return std::isnan(e.arr) ? -std::numeric_limits<float>::infinity()
                                 : e.arr;
      };
      std::stable_sort(es.begin(), es.end(), [&](const Entry& x, const Entry& y) {
        return key(x) > key(y);
      });
      const std::size_t b = static_cast<std::size_t>(a) * stride;
      for (std::int32_t j = 0; j < cnt; ++j) {
        const std::size_t i = b + static_cast<std::size_t>(j);
        const Entry& e = es[static_cast<std::size_t>(j)];
        parr[i] = e.arr;
        pmu[i] = e.mu;
        psig[i] = e.sig;
        psp[i] = pool[static_cast<std::size_t>(j)];
      }
      core::MergeArc& ma = arcs[static_cast<std::size_t>(a)];
      ma.par = {&parr[b], &pmu[b], &psig[b], &psp[b], cnt};
      if (gen.ties) {
        ma.am = static_cast<float>(rng() % 6);
        ma.as2 = 0.0f;
      } else {
        ma.am = dly(rng);
        const float s = 0.1f * dly(rng);
        ma.as2 = s * s;
      }
    }
  }
};

/// A destination list plus the counters of one merge, compared over the
/// live lanes only (bitwise, so NaN-safe).
struct MergeResult {
  std::vector<float> arr, mu, sig;
  std::vector<std::int32_t> sp;
  std::int32_t count = 0;
  core::MergeCounters mc;

  explicit MergeResult(std::int32_t k)
      : arr(static_cast<std::size_t>(k)), mu(arr.size()), sig(arr.size()),
        sp(arr.size(), -1) {}
  core::TopKView view() {
    return {arr.data(), mu.data(), sig.data(), sp.data(),
            static_cast<std::int32_t>(arr.size()), &count};
  }
};

void expect_same_merge(const MergeResult& a, const MergeResult& b,
                       const std::string& what) {
  ASSERT_EQ(a.count, b.count) << what;
  const auto n = static_cast<std::size_t>(a.count);
  EXPECT_EQ(std::memcmp(a.arr.data(), b.arr.data(), n * sizeof(float)), 0)
      << what;
  EXPECT_EQ(std::memcmp(a.mu.data(), b.mu.data(), n * sizeof(float)), 0)
      << what;
  EXPECT_EQ(std::memcmp(a.sig.data(), b.sig.data(), n * sizeof(float)), 0)
      << what;
  EXPECT_EQ(std::memcmp(a.sp.data(), b.sp.data(), n * sizeof(std::int32_t)),
            0)
      << what;
  EXPECT_EQ(a.mc.merges, b.mc.merges) << what;
  EXPECT_EQ(a.mc.prunes, b.mc.prunes) << what;
}

/// Runs a merge kernel the way Engine::merge_pin_values does: count reset
/// once, then arcs handed over in chunks of 16.
using MergeKernel = void (*)(const core::TopKView&, const core::MergeArc*,
                             int, float, bool, core::MergeCounters&);

MergeResult run_merge(MergeKernel kernel, const MergeInput& in,
                      std::int32_t k, bool early) {
  MergeResult r(k);
  const int n = static_cast<int>(in.arcs.size());
  for (int s = 0; s < n; s += 16) {
    kernel(r.view(), in.arcs.data() + s, std::min(16, n - s), 3.0f, early,
           r.mc);
  }
  return r;
}

/// The specification the kernels must reproduce: every candidate in arc
/// order through a plain topk_insert, after dropping candidates that are
/// not > -inf (NaN, -inf). The counters follow the kernels' documented
/// semantics: every candidate is a merge; a prune is a dropped candidate,
/// one at or below the smallest entry of a list that was full when its
/// group of 8 started (the pre-filter), or a topk_insert prune.
void oracle_merge(const core::TopKView& dst, const core::MergeArc* arcs,
                  int n, float nsigma, bool early, core::MergeCounters& mc) {
  const float neg_inf = -std::numeric_limits<float>::infinity();
  for (int a = 0; a < n; ++a) {
    const core::MergeArc& ma = arcs[a];
    float thr = neg_inf;
    for (std::int32_t j = 0; j < ma.par.cnt; ++j) {
      if (j % 8 == 0) {
        thr = (*dst.count == dst.k) ? dst.arr[dst.k - 1] : neg_inf;
      }
      const float psig = ma.par.sig[j];
      const float mu = ma.par.mu[j] + ma.am;
      const float sig = std::sqrt(psig * psig + ma.as2);
      const float arr = early ? -(mu - nsigma * sig) : (mu + nsigma * sig);
      ++mc.merges;
      if (!(arr > neg_inf)) {
        ++mc.prunes;
        continue;
      }
      // Inserted even when the pre-filter counts it: such a candidate must
      // leave the list unchanged, which the byte comparison then checks.
      const bool pruned = core::topk_insert(dst, arr, mu, sig, ma.par.sp[j]);
      mc.prunes += static_cast<std::uint64_t>(pruned || !(arr > thr));
    }
  }
}

/// Merges through both flavors into separate destinations that must come
/// out byte-identical.
class MergeFlavors : public ::testing::TestWithParam<std::int32_t> {};

TEST_P(MergeFlavors, ScalarAndAvx2AreBitIdentical) {
  if (!avx2_available()) GTEST_SKIP() << "AVX2 unavailable";
  const std::int32_t k = GetParam();
  std::mt19937 rng(1234u + static_cast<unsigned>(k));
  for (int trial = 0; trial < 50; ++trial) {
    const MergeInput in(rng, k, MergeGen{});
    for (const bool early : {false, true}) {
      // The flavors share the group structure, so the counters agree too.
      expect_same_merge(
          run_merge(core::merge_arcs_scalar, in, k, early),
          run_merge(core::merge_arcs_avx2, in, k, early),
          "trial " + std::to_string(trial) + " early " +
              std::to_string(early));
    }
  }
}

INSTANTIATE_TEST_SUITE_P(KSweep, MergeFlavors,
                         ::testing::Values(1, 2, 4, 8, 13, 16, 32));

/// Both flavors — seed step, filter and insert regimes alike — equal the
/// sequential topk_insert specification: equal-arrival ties with
/// different mu/sigma, NaN/±inf candidates, empty leading parents (also
/// across a 16-arc chunk boundary), late and early mode.
class MergeOracle : public ::testing::TestWithParam<std::int32_t> {};

TEST_P(MergeOracle, KernelsMatchSequentialTopkInsert) {
  const std::int32_t k = GetParam();
  std::mt19937 rng(777u + static_cast<unsigned>(k));
  for (int trial = 0; trial < 60; ++trial) {
    MergeGen gen;
    gen.ties = trial % 2 == 0;
    gen.specials = trial % 3 == 0;
    gen.max_empty_prefix = (trial % 4 == 0) ? 20 : 2;
    gen.max_arcs = (trial % 4 == 0) ? 40 : 12;
    const MergeInput in(rng, k, gen);
    for (const bool early : {false, true}) {
      const std::string what = "trial " + std::to_string(trial) + " early " +
                               std::to_string(early);
      const MergeResult want = run_merge(oracle_merge, in, k, early);
      expect_same_merge(want, run_merge(core::merge_arcs_scalar, in, k, early),
                        "scalar " + what);
      if (avx2_available()) {
        expect_same_merge(want, run_merge(core::merge_arcs_avx2, in, k, early),
                          "avx2 " + what);
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(KSweep, MergeOracle,
                         ::testing::Values(1, 2, 4, 8, 13, 16, 32));

TEST(BackwardCandFlavors, ScalarAndAvx2AreBitIdentical) {
  if (!avx2_available()) GTEST_SKIP() << "AVX2 unavailable";
  const std::int32_t stride = 8;
  const std::int32_t parents = 257;  // odd count: gather tail coverage
  std::mt19937 rng(99);
  std::uniform_real_distribution<float> val(-100.0f, 900.0f);
  std::vector<float> tk_mu(static_cast<std::size_t>(parents * stride));
  std::vector<float> tk_sig(tk_mu.size());
  std::vector<std::int32_t> tk_cnt(static_cast<std::size_t>(parents));
  for (auto& v : tk_mu) v = val(rng);
  for (auto& v : tk_sig) v = 0.5f + 0.001f * val(rng);
  for (std::size_t p = 0; p < tk_cnt.size(); ++p) {
    tk_cnt[p] = (p % 7 == 0) ? 0 : static_cast<std::int32_t>(1 + p % 4);
  }
  const std::int32_t slots = 1003;  // non-multiple of 8: vector tail
  std::vector<std::int32_t> ci(static_cast<std::size_t>(slots));
  std::vector<float> amu(ci.size()), asig(ci.size());
  for (auto& c : ci) {
    c = static_cast<std::int32_t>(rng() % static_cast<unsigned>(parents));
  }
  for (auto& x : amu) x = 0.1f * val(rng);
  for (auto& x : asig) x = 0.001f * std::abs(val(rng));
  std::vector<float> out1(ci.size(), -1.0f), out2(ci.size(), -2.0f);
  core::backward_cand_scalar(tk_mu.data(), tk_sig.data(), tk_cnt.data(),
                             ci.data(), stride, amu.data(), asig.data(), slots,
                             3.0f, out1.data());
  core::backward_cand_avx2(tk_mu.data(), tk_sig.data(), tk_cnt.data(),
                           ci.data(), stride, amu.data(), asig.data(), slots,
                           3.0f, out2.data());
  for (std::size_t s = 0; s < out1.size(); ++s) {
    if (tk_cnt[static_cast<std::size_t>(ci[s])] == 0) {
      EXPECT_EQ(out1[s], -std::numeric_limits<float>::infinity());
    }
    EXPECT_EQ(out1[s], out2[s]) << "slot " << s;
  }
}

// ---- engine-level property tests --------------------------------------------

struct Fixture {
  gen::GeneratedDesign gd;
  std::unique_ptr<timing::TimingGraph> graph;
  std::unique_ptr<timing::DelayCalculator> calc;
  timing::ArcDelays delays;
  std::unique_ptr<ref::GoldenSta> sta;

  explicit Fixture(std::uint64_t seed) {
    gd = gen::build_logic_block(gen::tiny_spec(seed));
    graph = std::make_unique<timing::TimingGraph>(*gd.design,
                                                  gd.constraints.clock_root);
    calc = std::make_unique<timing::DelayCalculator>(*gd.design, *graph);
    calc->compute_all(delays);
    gen::tune_clock_period(*graph, gd.constraints, delays, 0.1);
    sta = std::make_unique<ref::GoldenSta>(*graph, gd.constraints, delays);
    sta->update_full();
  }
};

void expect_same_forward_state(const core::Engine& a, const core::Engine& b,
                               const netlist::Design& d) {
  for (std::size_t p = 0; p < d.num_pins(); ++p) {
    const auto pin = static_cast<netlist::PinId>(p);
    for (const auto rf : {netlist::RiseFall::kRise, netlist::RiseFall::kFall}) {
      const auto ea = a.arrivals(pin, rf);
      const auto eb = b.arrivals(pin, rf);
      ASSERT_EQ(ea.size(), eb.size()) << "pin " << p;
      for (std::size_t j = 0; j < ea.size(); ++j) {
        EXPECT_EQ(ea[j].arr, eb[j].arr) << "pin " << p << " slot " << j;
        EXPECT_EQ(ea[j].mu, eb[j].mu);
        EXPECT_EQ(ea[j].sig, eb[j].sig);
        EXPECT_EQ(ea[j].sp, eb[j].sp);
      }
    }
  }
  const auto sa = a.endpoint_slacks();
  const auto sb = b.endpoint_slacks();
  ASSERT_EQ(sa.size(), sb.size());
  for (std::size_t e = 0; e < sa.size(); ++e) {
    if (std::isnan(sa[e])) {
      EXPECT_TRUE(std::isnan(sb[e]));
    } else {
      EXPECT_EQ(sa[e], sb[e]) << "endpoint " << e;
    }
  }
}

class SimdEngine
    : public ::testing::TestWithParam<std::tuple<std::uint64_t, int>> {};

/// Forward propagation through the scalar and AVX2 flavors must leave
/// byte-identical Top-K stores and slacks at every K.
TEST_P(SimdEngine, ForwardIsBitIdenticalAcrossFlavors) {
  if (!avx2_available()) GTEST_SKIP() << "AVX2 unavailable";
  const auto [seed, k] = GetParam();
  Fixture f(seed);
  core::EngineOptions so;
  so.top_k = k;
  so.simd = util::simd::SimdMode::kScalar;
  core::EngineOptions vo = so;
  vo.simd = util::simd::SimdMode::kAvx2;
  core::Engine es(*f.sta, so);
  core::Engine ev(*f.sta, vo);
  es.run_forward();
  ev.run_forward();
  expect_same_forward_state(es, ev, *f.gd.design);
}

/// Backward gradients from the vectorized candidate pass must match the
/// scalar reference bit-for-bit in default numeric mode.
TEST_P(SimdEngine, BackwardGradientsAreBitIdenticalAcrossFlavors) {
  if (!avx2_available()) GTEST_SKIP() << "AVX2 unavailable";
  const auto [seed, k] = GetParam();
  Fixture f(seed);
  core::EngineOptions so;
  so.top_k = k;
  so.simd = util::simd::SimdMode::kScalar;
  core::EngineOptions vo = so;
  vo.simd = util::simd::SimdMode::kAvx2;
  core::Engine es(*f.sta, so);
  core::Engine ev(*f.sta, vo);
  es.run_forward();
  ev.run_forward();
  for (const auto metric :
       {core::GradientMetric::kTns, core::GradientMetric::kWns}) {
    es.run_backward(metric);
    ev.run_backward(metric);
    const auto ga = es.arc_gradients();
    const auto gb = ev.arc_gradients();
    ASSERT_EQ(ga.size(), gb.size());
    for (std::size_t i = 0; i < ga.size(); ++i) {
      EXPECT_EQ(ga[i], gb[i]) << "arc " << i;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, SimdEngine,
    ::testing::Combine(::testing::Values(21u, 22u, 23u),
                       ::testing::Values(1, 2, 4, 8)));

/// After an ECO the incremental backward pass reuses clean softmax weights
/// (BackwardStats says so) and must still produce gradients bitwise equal
/// to a dense forward + full backward on identical annotations.
TEST(SimdEngine, IncrementalBackwardReuseMatchesFullRecompute) {
  Fixture f(31u);
  core::EngineOptions opt;
  opt.top_k = 8;
  core::Engine inc(*f.sta, opt);
  core::Engine full(*f.sta, opt);
  inc.run_forward();
  full.run_forward();
  inc.run_backward(core::GradientMetric::kTns);

  util::Rng rng(7);
  const auto changes = gen::random_changelist(*f.gd.design, *f.graph, rng, 10);
  bool saw_reuse = false;
  for (const auto& ch : changes) {
    const auto deltas = f.calc->estimate_eco(ch.cell, ch.new_libcell);
    inc.annotate(deltas);
    full.annotate(deltas);
    inc.run_forward_incremental();
    full.run_forward();
    inc.run_backward(core::GradientMetric::kTns);
    saw_reuse = saw_reuse || inc.last_backward_stats().weights_reused;
    full.run_backward(core::GradientMetric::kTns);
    const auto ga = inc.arc_gradients();
    const auto gb = full.arc_gradients();
    ASSERT_EQ(ga.size(), gb.size());
    for (std::size_t i = 0; i < ga.size(); ++i) {
      EXPECT_EQ(ga[i], gb[i]) << "arc " << i;
    }
  }
  EXPECT_TRUE(saw_reuse) << "no incremental backward exercised weight reuse";
}

/// INSTA_SIMD=off / SimdMode::kScalar must be honored even on AVX2 hosts:
/// the dispatcher resolves to the scalar flavor and the engine still
/// produces a valid timing state.
TEST(SimdDispatch, ScalarModeAlwaysResolves) {
  EXPECT_FALSE(util::simd::resolve(util::simd::SimdMode::kScalar));
  if (avx2_available()) {
    EXPECT_TRUE(util::simd::resolve(util::simd::SimdMode::kAvx2));
  }
}

}  // namespace
}  // namespace insta
