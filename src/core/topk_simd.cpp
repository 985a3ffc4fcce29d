#include "core/topk_simd.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>

#if defined(INSTA_SIMD_ENABLED) && INSTA_SIMD_ENABLED && defined(__x86_64__)
#define INSTA_SIMD_COMPILED 1
#include <immintrin.h>
#else
#define INSTA_SIMD_COMPILED 0
#endif

#include "util/check.hpp"

namespace insta::core {

namespace {

constexpr float kNegInf = -std::numeric_limits<float>::infinity();

/// One group of up to 8 prepared candidates, staged for the scalar
/// insertion loop (the vector flavor stores its lanes here).
struct CandGroup {
  float arr[8];
  float mu[8];
  float sig[8];
};

/// The threshold of the group pre-filter: with a full list, a candidate
/// whose arrival does not beat the smallest kept entry cannot change the
/// list — every kept entry is >= that minimum, so neither the
/// startpoint-update path nor the insert path of topk_insert would fire.
inline float group_threshold(const TopKView& dst) {
  return (*dst.count == dst.k) ? dst.arr[dst.k - 1] : kNegInf;
}

/// Inserts the kept lanes of one group in ascending lane order (matching
/// the sequential candidate order of the pre-SIMD kernel, which is what
/// keeps results bit-identical to it).
inline void insert_group(const TopKView& dst, const CandGroup& cg,
                         const std::int32_t* sp, unsigned keep,
                         MergeCounters& mc) {
  while (keep != 0) {
    const int l = __builtin_ctz(keep);
    keep &= keep - 1;
    mc.prunes += static_cast<std::uint64_t>(
        topk_insert(dst, cg.arr[l], cg.mu[l], cg.sig[l], sp[l]));
  }
}

/// Starts pulling in the next arc's parent planes — the only
/// hard-to-predict reads of the merge (CSR-indirect).
inline void prefetch_next(const MergeArc* arcs, int a, int n) {
  if (a + 1 < n) {
    __builtin_prefetch(arcs[a + 1].par.mu);
    __builtin_prefetch(arcs[a + 1].par.sig);
  }
}

/// Candidate `j` of one arc: the one-rounding-per-op transform every
/// flavor and regime shares.
inline void transform_scalar(const MergeArc& ma, std::int32_t j, float nsigma,
                             bool early, float& arr, float& mu, float& sig) {
  const float psig = ma.par.sig[j];
  mu = ma.par.mu[j] + ma.am;
  sig = std::sqrt(psig * psig + ma.as2);
  arr = early ? -(mu - nsigma * sig) : (mu + nsigma * sig);
}

/// Debug check of the seed step's contract: a parent list never repeats a
/// startpoint tag (topk_insert's uniqueness invariant).
inline bool tags_unique(const TopKConstView& par) {
  for (std::int32_t i = 1; i < par.cnt; ++i) {
    for (std::int32_t j = 0; j < i; ++j) {
      if (par.sp[i] == par.sp[j]) return false;
    }
  }
  return true;
}

/// The seed regime: one arc merged into an empty destination. topk_insert
/// would reach the same bytes with two checks that cannot fire here — the
/// tag scan can only match a tag already in the list, and every tag comes
/// from this one parent, whose tags are unique; the full-list check needs
/// n == k, and the list never holds more than par.cnt <= k entries. The
/// group pre-filter of an empty list keeps `arrival > -inf`, so NaN and
/// -inf candidates are dropped and counted as prunes, as before.
inline void seed_arc_scalar(const TopKView& dst, const MergeArc& ma,
                            float nsigma, bool early, MergeCounters& mc) {
  const std::int32_t cnt = ma.par.cnt;
  INSTA_DCHECK(cnt <= dst.k, "seed_arc: parent count exceeds capacity");
  INSTA_DCHECK(tags_unique(ma.par), "seed_arc: parent tags not unique");
  mc.merges += static_cast<std::uint64_t>(cnt);
  std::int32_t n = 0;
  for (std::int32_t j = 0; j < cnt; ++j) {
    float arr;
    float mu;
    float sig;
    transform_scalar(ma, j, nsigma, early, arr, mu, sig);
    if (!(arr > kNegInf)) continue;
    topk_place(dst, n++, arr, mu, sig, ma.par.sp[j]);
  }
  mc.prunes += static_cast<std::uint64_t>(cnt - n);
  *dst.count = n;
}

}  // namespace

void merge_arcs_scalar(const TopKView& dst, const MergeArc* arcs, int n,
                       float nsigma, bool early, MergeCounters& mc) {
  int a = 0;
  // Seed regime while the destination is empty (an empty first parent,
  // or one whose candidates were all dropped, leaves it empty).
  for (; a < n && *dst.count == 0; ++a) {
    prefetch_next(arcs, a, n);
    seed_arc_scalar(dst, arcs[a], nsigma, early, mc);
  }
  for (; a < n; ++a) {
    const MergeArc& ma = arcs[a];
    prefetch_next(arcs, a, n);
    const std::int32_t cnt = ma.par.cnt;
    mc.merges += static_cast<std::uint64_t>(cnt);
    for (std::int32_t kk = 0; kk < cnt; kk += 8) {
      const int g = static_cast<int>(std::min<std::int32_t>(8, cnt - kk));
      const float thr = group_threshold(dst);
      CandGroup cg;
      unsigned keep = 0;
      for (int l = 0; l < g; ++l) {
        transform_scalar(ma, kk + l, nsigma, early, cg.arr[l], cg.mu[l],
                         cg.sig[l]);
        if (cg.arr[l] > thr) keep |= 1u << static_cast<unsigned>(l);
      }
      mc.prunes +=
          static_cast<std::uint64_t>(g - __builtin_popcount(keep));
      insert_group(dst, cg, ma.par.sp + kk, keep, mc);
    }
  }
}

void backward_cand_scalar(const float* tk_mu, const float* tk_sig,
                          const std::int32_t* tk_cnt, const std::int32_t* ci,
                          std::int32_t stride, const float* amu,
                          const float* asig, std::int32_t n, float nsigma,
                          float* out_cand) {
  for (std::int32_t i = 0; i < n; ++i) {
    const std::int32_t c = ci[i];
    if (tk_cnt[c] == 0) {
      out_cand[i] = kNegInf;
      continue;
    }
    const std::size_t base =
        static_cast<std::size_t>(c) * static_cast<std::size_t>(stride);
    const float as = asig[i];
    out_cand[i] = tk_mu[base] + amu[i] +
                  nsigma * std::sqrt(tk_sig[base] * tk_sig[base] + as * as);
  }
}

#if INSTA_SIMD_COMPILED

namespace {

/// Maskload lookup: kTailMask + (8 - g) selects a mask whose first g lanes
/// are enabled. Tail groups load through it so the kernels never read past
/// cnt entries — overlay slabs and scratch buffers need no padding.
alignas(32) constexpr std::int32_t kTailMask[16] = {
    -1, -1, -1, -1, -1, -1, -1, -1, 0, 0, 0, 0, 0, 0, 0, 0};

/// First-g-lanes mask of a movemask result.
inline unsigned lane_bits(int g) {
  return (g == 8) ? 0xFFu : ((1u << static_cast<unsigned>(g)) - 1u);
}

/// One group of up to 8 candidates in registers.
struct CandVec {
  __m256 arr, mu, sig;
};

/// Candidates [kk, kk + g) of one arc, 8-wide: loadu for a full group,
/// maskload for the ragged tail. Same one-rounding-per-op sequence as
/// transform_scalar; the early corner is the exact negation (sign-bit xor)
/// of mu - nsigma*sig, matching scalar -(mu - nsigma*sig) bit-for-bit
/// including zeros.
__attribute__((target("avx2"))) inline CandVec transform_avx2(
    const MergeArc& ma, std::int32_t kk, int g, __m256 vns, bool early) {
  __m256 pmu;
  __m256 psig;
  if (g == 8) {
    pmu = _mm256_loadu_ps(ma.par.mu + kk);
    psig = _mm256_loadu_ps(ma.par.sig + kk);
  } else {
    const __m256i mask = _mm256_loadu_si256(
        reinterpret_cast<const __m256i*>(kTailMask + (8 - g)));
    pmu = _mm256_maskload_ps(ma.par.mu + kk, mask);
    psig = _mm256_maskload_ps(ma.par.sig + kk, mask);
  }
  CandVec c;
  c.mu = _mm256_add_ps(pmu, _mm256_set1_ps(ma.am));
  c.sig = _mm256_sqrt_ps(
      _mm256_add_ps(_mm256_mul_ps(psig, psig), _mm256_set1_ps(ma.as2)));
  const __m256 spread = _mm256_mul_ps(vns, c.sig);
  c.arr = early ? _mm256_xor_ps(_mm256_sub_ps(c.mu, spread),
                                _mm256_set1_ps(-0.0f))
                : _mm256_add_ps(c.mu, spread);
  return c;
}

/// Keep mask of a group against threshold `thr`, clipped to g lanes
/// (NaN lanes compare false and drop).
__attribute__((target("avx2"))) inline unsigned keep_mask(__m256 arr,
                                                          float thr, int g) {
  return static_cast<unsigned>(_mm256_movemask_ps(
             _mm256_cmp_ps(arr, _mm256_set1_ps(thr), _CMP_GT_OQ))) &
         lane_bits(g);
}

/// Stages a group's lanes for the scalar insertion loops.
__attribute__((target("avx2"))) inline void stage(const CandVec& c,
                                                  CandGroup& cg) {
  _mm256_storeu_ps(cg.arr, c.arr);
  _mm256_storeu_ps(cg.mu, c.mu);
  _mm256_storeu_ps(cg.sig, c.sig);
}

/// seed_arc_scalar with the 8-wide transform and keep test; the kept lanes
/// go through the same shift loop in ascending lane order.
__attribute__((target("avx2"))) inline void seed_arc_avx2(
    const TopKView& dst, const MergeArc& ma, __m256 vns, bool early,
    MergeCounters& mc) {
  const std::int32_t cnt = ma.par.cnt;
  INSTA_DCHECK(cnt <= dst.k, "seed_arc: parent count exceeds capacity");
  INSTA_DCHECK(tags_unique(ma.par), "seed_arc: parent tags not unique");
  mc.merges += static_cast<std::uint64_t>(cnt);
  std::int32_t n = 0;
  for (std::int32_t kk = 0; kk < cnt; kk += 8) {
    const int g = static_cast<int>(std::min<std::int32_t>(8, cnt - kk));
    const CandVec c = transform_avx2(ma, kk, g, vns, early);
    unsigned keep = keep_mask(c.arr, kNegInf, g);
    CandGroup cg;
    stage(c, cg);
    while (keep != 0) {
      const int l = __builtin_ctz(keep);
      keep &= keep - 1;
      topk_place(dst, n++, cg.arr[l], cg.mu[l], cg.sig[l],
                 ma.par.sp[kk + l]);
    }
  }
  mc.prunes += static_cast<std::uint64_t>(cnt - n);
  *dst.count = n;
}

/// topk_insert with the two O(K) scans vectorized: the startpoint tag scan
/// and the insert-position search are 8-wide compares, the shift is a
/// memmove per plane. Byte-identical to topk_insert for every input (the
/// property tests in test_simd.cpp assert this): the tag scan finds the
/// same (unique) entry the scalar scan would, the position count equals
/// the scalar shift loop's final position because the list is descending
/// (entries smaller than the candidate form a suffix), and the memmove
/// performs the same element moves as the scalar shifting.
__attribute__((target("avx2"))) inline bool topk_insert_avx2(
    const TopKView& v, float arr, float mu, float sig, std::int32_t sp) {
  const std::int32_t n = *v.count;
  // Step 1: startpoint uniqueness check, 8 tags per compare.
  const __m256i vsp = _mm256_set1_epi32(sp);
  for (std::int32_t b = 0; b < n; b += 8) {
    const int g = static_cast<int>(std::min<std::int32_t>(8, n - b));
    const __m256i mask = _mm256_loadu_si256(
        reinterpret_cast<const __m256i*>(kTailMask + (8 - g)));
    // Masked lanes read 0 — a valid tag value — so movemask results are
    // clipped to the g live lanes.
    const __m256i tags = (g == 8)
        ? _mm256_loadu_si256(reinterpret_cast<const __m256i*>(v.sp + b))
        : _mm256_maskload_epi32(v.sp + b, mask);
    unsigned hits = static_cast<unsigned>(_mm256_movemask_ps(
        _mm256_castsi256_ps(_mm256_cmpeq_epi32(tags, vsp))));
    hits &= lane_bits(g);
    if (hits == 0) continue;
    const std::int32_t j = b + __builtin_ctz(hits);
    if (arr > v.arr[j]) {
      v.arr[j] = arr;
      v.mu[j] = mu;
      v.sig[j] = sig;
      std::int32_t i = j;
      while (i > 0 && v.arr[i - 1] < v.arr[i]) {
        std::swap(v.arr[i - 1], v.arr[i]);
        std::swap(v.mu[i - 1], v.mu[i]);
        std::swap(v.sig[i - 1], v.sig[i]);
        std::swap(v.sp[i - 1], v.sp[i]);
        --i;
      }
    }
    return false;
  }
  // Step 2: insert as a new startpoint if it qualifies.
  std::int32_t last = n;
  if (n == v.k) {
    if (arr <= v.arr[n - 1]) return true;
    last = n - 1;
  } else {
    *v.count = n + 1;
  }
  // The descending list makes "entries < arr" a suffix; its start is the
  // insert position the scalar shift loop would reach. Count the >= prefix
  // with vector compares (floats here are never NaN).
  const __m256 vc = _mm256_set1_ps(arr);
  std::int32_t pos = 0;
  for (std::int32_t b = 0; b < n; b += 8) {
    const int g = static_cast<int>(std::min<std::int32_t>(8, n - b));
    const __m256i mask = _mm256_loadu_si256(
        reinterpret_cast<const __m256i*>(kTailMask + (8 - g)));
    const __m256 e = (g == 8) ? _mm256_loadu_ps(v.arr + b)
                              : _mm256_maskload_ps(v.arr + b, mask);
    unsigned ge = static_cast<unsigned>(
        _mm256_movemask_ps(_mm256_cmp_ps(e, vc, _CMP_GE_OQ)));
    ge &= lane_bits(g);
    pos += __builtin_popcount(ge);
    if (ge != lane_bits(g)) {
      break;  // the < suffix has started
    }
  }
  pos = std::min(pos, last);
  if (pos < last) {
    // Shift [pos, last) down one slot, highest chunk first: a chunk's
    // store only overwrites slots above the chunks still to be loaded, so
    // backward order needs no staging buffer (and no memmove call
    // overhead, which would dominate at list-sized moves).
    std::int32_t b = last - 8;
    for (; b >= pos; b -= 8) {
      _mm256_storeu_ps(v.arr + b + 1, _mm256_loadu_ps(v.arr + b));
      _mm256_storeu_ps(v.mu + b + 1, _mm256_loadu_ps(v.mu + b));
      _mm256_storeu_ps(v.sig + b + 1, _mm256_loadu_ps(v.sig + b));
      _mm256_storeu_si256(
          reinterpret_cast<__m256i*>(v.sp + b + 1),
          _mm256_loadu_si256(reinterpret_cast<const __m256i*>(v.sp + b)));
    }
    const int g = b + 8 - pos;  // leading partial chunk [pos, pos + g)
    if (g > 0) {
      const __m256i mask = _mm256_loadu_si256(
          reinterpret_cast<const __m256i*>(kTailMask + (8 - g)));
      _mm256_maskstore_ps(v.arr + pos + 1, mask,
                          _mm256_maskload_ps(v.arr + pos, mask));
      _mm256_maskstore_ps(v.mu + pos + 1, mask,
                          _mm256_maskload_ps(v.mu + pos, mask));
      _mm256_maskstore_ps(v.sig + pos + 1, mask,
                          _mm256_maskload_ps(v.sig + pos, mask));
      _mm256_maskstore_epi32(v.sp + pos + 1, mask,
                             _mm256_maskload_epi32(v.sp + pos, mask));
    }
  }
  v.arr[pos] = arr;
  v.mu[pos] = mu;
  v.sig[pos] = sig;
  v.sp[pos] = sp;
  return false;
}

/// insert_group with the vectorized insert; same ascending lane order.
__attribute__((target("avx2"))) inline void insert_group_avx2(
    const TopKView& dst, const CandGroup& cg, const std::int32_t* sp,
    unsigned keep, MergeCounters& mc) {
  while (keep != 0) {
    const int l = __builtin_ctz(keep);
    keep &= keep - 1;
    mc.prunes += static_cast<std::uint64_t>(
        topk_insert_avx2(dst, cg.arr[l], cg.mu[l], cg.sig[l], sp[l]));
  }
}

// ---- register-resident destination list (8 < k <= 16) ----------------------
//
// The profitability wall of the memory-resident insert path is not the
// candidate math (which vectorizes 8-wide) but the survivor path: every
// tag scan and position search loads the list that the previous candidate
// just stored, so the loop is serialized on store-to-load forwarding of
// 32 B loads over fresh 4 B stores. For k <= 16 the whole list — all four
// planes — fits in eight ymm registers, so the merge of one pin can run
// entirely in registers: scans are two compares + movemask, shifts are
// permute/blend lane moves, and memory is touched exactly twice (one load
// at entry, one masked store at exit). Every value-producing operation is
// unchanged — only data movement differs — so results stay bit-identical
// to topk_insert (the property tests in test_simd.cpp assert this).

/// 16-lane prefix mask (first `t` of 16 dword lanes set), served as two
/// 8-lane halves out of a sliding pool. The domain is t in [0, 17]:
/// t = 17 (all lanes, one past the end) lets reg_seg_insert express the
/// empty range (16, 15] so a no-op is just another mask selection — the
/// key to keeping the insert path branchless.
alignas(32) constexpr std::int32_t kLaneMask34[34] = {
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    0,  0,  0,  0,  0,  0,  0,  0,  0,  0,  0,  0,  0,  0,  0,  0,  0};

struct PrefixMask {
  __m256i lo, hi;
};

__attribute__((target("avx2"))) inline PrefixMask prefix16(int t) {
  return {_mm256_loadu_si256(
              reinterpret_cast<const __m256i*>(kLaneMask34 + 17 - t)),
          _mm256_loadu_si256(
              reinterpret_cast<const __m256i*>(kLaneMask34 + 25 - t))};
}

/// The four list planes of one destination, lanes 0..15 = entries 0..15.
struct RegList {
  __m256 a0, a1;    // arrival
  __m256 m0, m1;    // mu
  __m256 s0, s1;    // sigma
  __m256i t0, t1;   // startpoint tag
};

/// Entry j's arrival, extracted without a memory round-trip.
__attribute__((target("avx2"))) inline float reg_lane(__m256 lo, __m256 hi,
                                                      int j) {
  const __m256 h = (j < 8) ? lo : hi;
  return _mm256_cvtss_f32(
      _mm256_permutevar8x32_ps(h, _mm256_set1_epi32(j & 7)));
}

/// Startpoint tag scan: bit i of the result = (entry i's tag == sp),
/// clipped to the n live lanes. At most one bit is set (the uniqueness
/// invariant).
__attribute__((target("avx2"))) inline unsigned reg_tag_hits(
    const RegList& l, std::int32_t sp, std::int32_t n) {
  const __m256i vt = _mm256_set1_epi32(sp);
  const auto h0 = static_cast<unsigned>(_mm256_movemask_ps(
      _mm256_castsi256_ps(_mm256_cmpeq_epi32(l.t0, vt))));
  const auto h1 = static_cast<unsigned>(_mm256_movemask_ps(
      _mm256_castsi256_ps(_mm256_cmpeq_epi32(l.t1, vt))));
  const unsigned hits = (h1 << 8) | h0;
  return hits & ((n == 16) ? 0xFFFFu : ((1u << static_cast<unsigned>(n)) - 1u));
}

/// Bit i = (entry i's arrival >= a), unclipped (callers mask to the lanes
/// they care about; dead lanes hold deterministic zero-filled values).
__attribute__((target("avx2"))) inline unsigned reg_ge_mask(const RegList& l,
                                                            float a) {
  const __m256 va = _mm256_set1_ps(a);
  const auto g0 = static_cast<unsigned>(
      _mm256_movemask_ps(_mm256_cmp_ps(l.a0, va, _CMP_GE_OQ)));
  const auto g1 = static_cast<unsigned>(
      _mm256_movemask_ps(_mm256_cmp_ps(l.a1, va, _CMP_GE_OQ)));
  return (g1 << 8) | g0;
}

/// One plane of reg_seg_insert: lanes selected by rm pick up their
/// predecessor (rotate-right, the hi half's wrap lane patched with lo's
/// top lane to cross the 8-lane seam), the one-hot oh lane takes the new
/// value. (A standalone function, not a lambda, because lambdas do not
/// inherit the enclosing target("avx2") attribute.)
__attribute__((target("avx2"))) inline void reg_shift_plane(
    __m256& lo, __m256& hi, __m256 nv, __m256 rm_lo, __m256 rm_hi,
    __m256 oh_lo, __m256 oh_hi) {
  const __m256i rot = _mm256_setr_epi32(7, 0, 1, 2, 3, 4, 5, 6);
  const __m256 l7 = _mm256_permutevar8x32_ps(lo, _mm256_set1_epi32(7));
  const __m256 lo_s = _mm256_permutevar8x32_ps(lo, rot);
  const __m256 hi_s =
      _mm256_blend_ps(_mm256_permutevar8x32_ps(hi, rot), l7, 0x01);
  lo = _mm256_blendv_ps(_mm256_blendv_ps(lo, lo_s, rm_lo), nv, oh_lo);
  hi = _mm256_blendv_ps(_mm256_blendv_ps(hi, hi_s, rm_hi), nv, oh_hi);
}

/// Shifts lanes [p, q) down one (lane i -> i + 1 for i in [p, q), so lane
/// q is overwritten) and writes the new entry at lane p — the common
/// primitive behind both the sorted insert (q = last slot) and the
/// bubble-up after a tag update (q = the updated entry's old position).
/// Pure lane movement: no float value is recomputed.
__attribute__((target("avx2"))) inline void reg_seg_insert(
    RegList& l, int p, int q, float a, float m, float s, std::int32_t sp) {
  const PrefixMask up_to_q = prefix16(q + 1);
  const PrefixMask up_to_p = prefix16(p + 1);
  const PrefixMask below_p = prefix16(p);
  // Lanes (p, q] receive their predecessor; lane p the new entry.
  const __m256 rm_lo =
      _mm256_castsi256_ps(_mm256_andnot_si256(up_to_p.lo, up_to_q.lo));
  const __m256 rm_hi =
      _mm256_castsi256_ps(_mm256_andnot_si256(up_to_p.hi, up_to_q.hi));
  const __m256 oh_lo =
      _mm256_castsi256_ps(_mm256_andnot_si256(below_p.lo, up_to_p.lo));
  const __m256 oh_hi =
      _mm256_castsi256_ps(_mm256_andnot_si256(below_p.hi, up_to_p.hi));
  reg_shift_plane(l.a0, l.a1, _mm256_set1_ps(a), rm_lo, rm_hi, oh_lo, oh_hi);
  reg_shift_plane(l.m0, l.m1, _mm256_set1_ps(m), rm_lo, rm_hi, oh_lo, oh_hi);
  reg_shift_plane(l.s0, l.s1, _mm256_set1_ps(s), rm_lo, rm_hi, oh_lo, oh_hi);
  __m256 tl = _mm256_castsi256_ps(l.t0);
  __m256 th = _mm256_castsi256_ps(l.t1);
  reg_shift_plane(tl, th, _mm256_castsi256_ps(_mm256_set1_epi32(sp)), rm_lo,
                  rm_hi, oh_lo, oh_hi);
  l.t0 = _mm256_castps_si256(tl);
  l.t1 = _mm256_castps_si256(th);
}

/// topk_insert against the register-resident list: the same decision
/// values as the scalar kernel, but with no data-dependent branches —
/// tag hit/miss, update-vs-skip, fresh insert, and full-list prune all
/// collapse into one unconditional reg_seg_insert whose (p, q) bounds are
/// cmov-selected (the no-op cases use the empty range p = 16, q = 15).
/// The survivor path's cost is dominated by branch mispredicts in the
/// scalar kernel, so being branchless is worth more here than saving
/// uops. Returns true when the full-list prune fired (mirroring
/// topk_insert's return value).
__attribute__((target("avx2"))) inline bool reg_topk_insert(
    RegList& l, std::int32_t& n, std::int32_t k, float arr, float mu,
    float sig, std::int32_t sp) {
  const unsigned hits = reg_tag_hits(l, sp, n);
  // ctz of the padded word is 16 on a miss (ctz(0) alone is undefined).
  const int j = __builtin_ctz(hits | 0x10000u);
  const bool hit = hits != 0;
  // Garbage extractions (j = 16 reads hi lane 0, n = 0 reads lane 7) feed
  // only into comparisons whose outcome is masked off below.
  const float aj = reg_lane(l.a0, l.a1, j & 15);
  const float amin = reg_lane(l.a0, l.a1, (n - 1) & 15);
  const int full = static_cast<int>(n == k);
  const int upd = static_cast<int>(hit) & static_cast<int>(arr > aj);
  const int prune = (1 - static_cast<int>(hit)) & full &
                    static_cast<int>(arr <= amin);
  const int ins = (1 - static_cast<int>(hit)) & (1 - prune);
  const unsigned ge = reg_ge_mask(l, arr);
  const int last = n - full;
  // Update: the scalar bubble-up stops at the first predecessor >= arr,
  // so the final position is the count of >= entries above the old slot.
  const int pos_h =
      __builtin_popcount(ge & ((1u << static_cast<unsigned>(j)) - 1u));
  // Insert: the descending list makes "entries < arr" a suffix; the
  // count of >= entries (capped at the last slot) is where the scalar
  // shift loop lands.
  const unsigned nmask =
      (n == 16) ? 0xFFFFu : ((1u << static_cast<unsigned>(n)) - 1u);
  int pos_m = __builtin_popcount(ge & nmask);
  pos_m = pos_m < last ? pos_m : last;
  // Mask-arithmetic case select (all-ones / all-zeros multiplicands) so
  // the compiler cannot reintroduce the data-dependent branches.
  const int mu_sel = -upd;
  const int mi_sel = -ins;
  const int mn_sel = ~(mu_sel | mi_sel);  // no-op: empty range (16, 15]
  const int p = (pos_h & mu_sel) | (pos_m & mi_sel) | (16 & mn_sel);
  const int q = (j & mu_sel) | (last & mi_sel) | (15 & mn_sel);
  n += ins & (1 - full);
  reg_seg_insert(l, p, q, arr, mu, sig, sp);
  return prune != 0;
}

/// merge_arcs with the destination held in registers for the whole call
/// (8 < k <= 16; k <= 8 stays on the memory path, whose lists are too
/// small to pay for the load/store bracketing). Loads clip to k lanes and
/// the exit store clips to the final count, so buffers only k entries
/// long are safe and memory beyond cnt is left exactly as the scalar
/// kernel leaves it.
__attribute__((target("avx2"))) void merge_arcs_avx2_reg16(
    const TopKView& dst, const MergeArc* arcs, int nar, __m256 vns,
    bool early, MergeCounters& mc) {
  const std::int32_t k = dst.k;
  RegList l;
  {
    const PrefixMask pk = prefix16(static_cast<int>(k));
    l.a0 = _mm256_loadu_ps(dst.arr);
    l.m0 = _mm256_loadu_ps(dst.mu);
    l.s0 = _mm256_loadu_ps(dst.sig);
    l.t0 = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(dst.sp));
    l.a1 = _mm256_maskload_ps(dst.arr + 8, pk.hi);
    l.m1 = _mm256_maskload_ps(dst.mu + 8, pk.hi);
    l.s1 = _mm256_maskload_ps(dst.sig + 8, pk.hi);
    l.t1 = _mm256_maskload_epi32(dst.sp + 8, pk.hi);
  }
  std::int32_t n = *dst.count;
  for (int a = 0; a < nar; ++a) {
    const MergeArc& ma = arcs[a];
    prefetch_next(arcs, a, nar);
    const std::int32_t cnt = ma.par.cnt;
    mc.merges += static_cast<std::uint64_t>(cnt);
    for (std::int32_t kk = 0; kk < cnt; kk += 8) {
      const int g = static_cast<int>(std::min<std::int32_t>(8, cnt - kk));
      const CandVec c = transform_avx2(ma, kk, g, vns, early);
      const float thr = (n == k) ? reg_lane(l.a0, l.a1, k - 1) : kNegInf;
      unsigned keep = keep_mask(c.arr, thr, g);
      CandGroup cg;
      stage(c, cg);
      mc.prunes += static_cast<std::uint64_t>(g - __builtin_popcount(keep));
      while (keep != 0) {
        const int lane = __builtin_ctz(keep);
        keep &= keep - 1;
        mc.prunes += static_cast<std::uint64_t>(
            reg_topk_insert(l, n, k, cg.arr[lane], cg.mu[lane], cg.sig[lane],
                            ma.par.sp[kk + lane]));
      }
    }
  }
  {
    const PrefixMask pn = prefix16(static_cast<int>(n));
    _mm256_maskstore_ps(dst.arr, pn.lo, l.a0);
    _mm256_maskstore_ps(dst.mu, pn.lo, l.m0);
    _mm256_maskstore_ps(dst.sig, pn.lo, l.s0);
    _mm256_maskstore_epi32(dst.sp, pn.lo, l.t0);
    _mm256_maskstore_ps(dst.arr + 8, pn.hi, l.a1);
    _mm256_maskstore_ps(dst.mu + 8, pn.hi, l.m1);
    _mm256_maskstore_ps(dst.sig + 8, pn.hi, l.s1);
    _mm256_maskstore_epi32(dst.sp + 8, pn.hi, l.t1);
  }
  *dst.count = n;
}

}  // namespace

__attribute__((target("avx2"))) void merge_arcs_avx2(
    const TopKView& dst, const MergeArc* arcs, int n, float nsigma,
    bool early, MergeCounters& mc) {
  const __m256 vns = _mm256_set1_ps(nsigma);
  int a = 0;
  // Seed regime while the destination is empty; the register path below
  // then starts from the seeded list.
  for (; a < n && *dst.count == 0; ++a) {
    prefetch_next(arcs, a, n);
    seed_arc_avx2(dst, arcs[a], vns, early, mc);
  }
  if (a == n) return;
  if (dst.k > 8 && dst.k <= 16) {
    merge_arcs_avx2_reg16(dst, arcs + a, n - a, vns, early, mc);
    return;
  }
  for (; a < n; ++a) {
    const MergeArc& ma = arcs[a];
    prefetch_next(arcs, a, n);
    const std::int32_t cnt = ma.par.cnt;
    mc.merges += static_cast<std::uint64_t>(cnt);
    for (std::int32_t kk = 0; kk < cnt; kk += 8) {
      const int g = static_cast<int>(std::min<std::int32_t>(8, cnt - kk));
      const CandVec c = transform_avx2(ma, kk, g, vns, early);
      unsigned keep = keep_mask(c.arr, group_threshold(dst), g);
      CandGroup cg;
      stage(c, cg);
      mc.prunes +=
          static_cast<std::uint64_t>(g - __builtin_popcount(keep));
      insert_group_avx2(dst, cg, ma.par.sp + kk, keep, mc);
    }
  }
}

__attribute__((target("avx2"))) void backward_cand_avx2(
    const float* tk_mu, const float* tk_sig, const std::int32_t* tk_cnt,
    const std::int32_t* ci, std::int32_t stride, const float* amu,
    const float* asig, std::int32_t n, float nsigma, float* out_cand) {
  const __m256 vns = _mm256_set1_ps(nsigma);
  const __m256 vneginf = _mm256_set1_ps(kNegInf);
  const __m256i vstride = _mm256_set1_epi32(stride);
  const __m256i vzero = _mm256_setzero_si256();
  std::int32_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m256i vci =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(ci + i));
    const __m256i vcnt = _mm256_i32gather_epi32(tk_cnt, vci, 4);
    // Entry base of each parent = count index * stride; empty parents
    // gather stale plane bytes that the -inf blend below discards.
    const __m256i vbase = _mm256_mullo_epi32(vci, vstride);
    const __m256 pmu = _mm256_i32gather_ps(tk_mu, vbase, 4);
    const __m256 psig = _mm256_i32gather_ps(tk_sig, vbase, 4);
    const __m256 vam = _mm256_loadu_ps(amu + i);
    const __m256 vas = _mm256_loadu_ps(asig + i);
    const __m256 var =
        _mm256_add_ps(_mm256_mul_ps(psig, psig), _mm256_mul_ps(vas, vas));
    const __m256 cand = _mm256_add_ps(
        _mm256_add_ps(pmu, vam), _mm256_mul_ps(vns, _mm256_sqrt_ps(var)));
    const __m256 empty =
        _mm256_castsi256_ps(_mm256_cmpeq_epi32(vcnt, vzero));
    _mm256_storeu_ps(out_cand + i, _mm256_blendv_ps(cand, vneginf, empty));
  }
  if (i < n) {
    backward_cand_scalar(tk_mu, tk_sig, tk_cnt, ci + i, stride, amu + i,
                         asig + i, n - i, nsigma, out_cand + i);
  }
}

#else  // !INSTA_SIMD_COMPILED

// INSTA_SIMD=OFF builds carry no AVX2 code; util::simd::resolve() never
// selects these, so reaching one is a dispatch bug.

void merge_arcs_avx2(const TopKView&, const MergeArc*, int, float, bool,
                     MergeCounters&) {
  util::check(false, "merge_arcs_avx2: AVX2 kernels not compiled in");
}

void backward_cand_avx2(const float*, const float*, const std::int32_t*,
                        const std::int32_t*, std::int32_t, const float*,
                        const float*, std::int32_t, float, float*) {
  util::check(false, "backward_cand_avx2: AVX2 kernels not compiled in");
}

#endif  // INSTA_SIMD_COMPILED

}  // namespace insta::core
