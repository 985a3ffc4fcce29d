#pragma once

// Batch Top-K merge and backward-softmax kernels, each in two flavors:
// a scalar reference and an AVX2 version compiled with a function-level
// target attribute (no global -mavx2; see util/simd.hpp for dispatch).
//
// Bit-identity contract: for finite inputs the two flavors of every
// default-mode kernel produce byte-identical outputs and identical
// counters. The per-candidate math (mu = pmu + am, sig = sqrt(psig^2 +
// as2), arrival = +/-(mu -/+ nsigma*sig)) is element-wise — one rounding
// per operation, no reassociation — and the AVX2 bodies use only
// mul/add/sub/sqrt/xor intrinsics, which GCC never contracts into FMA, so
// every lane rounds exactly like the scalar expression.

#include <cstdint>

#include "core/topk.hpp"

namespace insta::core {

/// One fanin arc's contribution to a pin merge: the parent's Top-K
/// snapshot (live store or scenario overlay) plus the arc's delay
/// distribution for the output transition being merged.
struct MergeArc {
  TopKConstView par;
  float am = 0.0f;   ///< arc delay mean, ps
  float as2 = 0.0f;  ///< arc delay variance (sigma^2), ps^2
};

/// Counters accumulated by the merge kernels; folded into the caller's
/// ForwardCounters. `prunes` counts candidates rejected either by the
/// 8-lane threshold pre-filter (arrival not > the smallest kept entry of a
/// full list, or not > -inf otherwise — a full-list candidate at or below
/// the minimum can never change the list, even when its startpoint is
/// already present; NaN and -inf never enter a list) or by topk_insert's
/// own full-list check.
struct MergeCounters {
  std::uint64_t merges = 0;
  std::uint64_t prunes = 0;
};

/// Merges the candidates of `n` fanin arcs into `dst` in arc order,
/// lane-group by lane-group (groups of 8 parent entries), with a
/// threshold pre-filter against the smallest kept arrival. While `dst` is
/// empty the next arc goes through the seed step instead: topk_insert
/// without its tag scan and full-list check, which cannot fire when one
/// parent (unique tags, at most K entries) fills an empty list. Scalar
/// reference flavor; the group structure matches the AVX2 flavor exactly
/// so counters agree too.
void merge_arcs_scalar(const TopKView& dst, const MergeArc* arcs, int n,
                       float nsigma, bool early, MergeCounters& mc);

/// AVX2 flavor: 8 candidates per iteration (loadu for full groups,
/// maskload for the ragged tail so no buffer padding is required), vector
/// compare against the threshold, then ascending-lane scalar inserts of
/// the survivors; the same seed step while `dst` is empty. Call only when
/// util::simd::resolve() said so.
void merge_arcs_avx2(const TopKView& dst, const MergeArc* arcs, int n,
                     float nsigma, bool early, MergeCounters& mc);

/// Dispatched entry point of the forward merge.
inline void merge_arcs(bool use_avx2, const TopKView& dst,
                       const MergeArc* arcs, int n, float nsigma, bool early,
                       MergeCounters& mc) {
  if (use_avx2) {
    merge_arcs_avx2(dst, arcs, n, nsigma, early, mc);
  } else {
    merge_arcs_scalar(dst, arcs, n, nsigma, early, mc);
  }
}

// ---- backward: per-slot softmax candidates ----------------------------------
//
// Phase 1 of run_backward scores every fanin slot with the LSE candidate
//   cand[s] = parent_top1_mu + amu[s] + nsigma * sqrt(parent_top1_sig^2 +
//             asig[s]^2)
// (-inf when the parent's Top-K list is empty). The parent top-1 entries
// are gathered through `ci` (per-slot count index of the parent, i.e.
// tk_pos[parent]*2 + prf) into the stride-padded SoA planes: the entry
// base of a parent is ci[s] * stride.

/// Scalar reference flavor over slots [0, n) of the given arrays.
void backward_cand_scalar(const float* tk_mu, const float* tk_sig,
                          const std::int32_t* tk_cnt, const std::int32_t* ci,
                          std::int32_t stride, const float* amu,
                          const float* asig, std::int32_t n, float nsigma,
                          float* out_cand);

/// AVX2 flavor: i32 gathers of parent count + top-1 mu/sigma, 8 slots per
/// iteration, scalar tail with identical math.
void backward_cand_avx2(const float* tk_mu, const float* tk_sig,
                        const std::int32_t* tk_cnt, const std::int32_t* ci,
                        std::int32_t stride, const float* amu,
                        const float* asig, std::int32_t n, float nsigma,
                        float* out_cand);

inline void backward_cand(bool use_avx2, const float* tk_mu,
                          const float* tk_sig, const std::int32_t* tk_cnt,
                          const std::int32_t* ci, std::int32_t stride,
                          const float* amu, const float* asig, std::int32_t n,
                          float nsigma, float* out_cand) {
  if (use_avx2) {
    backward_cand_avx2(tk_mu, tk_sig, tk_cnt, ci, stride, amu, asig, n,
                       nsigma, out_cand);
  } else {
    backward_cand_scalar(tk_mu, tk_sig, tk_cnt, ci, stride, amu, asig, n,
                         nsigma, out_cand);
  }
}

}  // namespace insta::core
