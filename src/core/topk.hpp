#pragma once

#include <cstdint>
#include <cstring>
#include <utility>

namespace insta::core {

/// A mutable view of one pin/transition's Top-K arrival store: four parallel
/// arrays of capacity `k` plus an external count. This mirrors the paper's
/// flat GPU layout (topK_{arrivals, means, stds, SPs}), where each CUDA
/// thread owns the K-slot slice of its output pin.
struct TopKView {
  float* arr = nullptr;       ///< corner arrival times, descending
  float* mu = nullptr;        ///< arrival means
  float* sig = nullptr;       ///< arrival sigmas
  std::int32_t* sp = nullptr; ///< startpoint tags (unique within the list)
  std::int32_t k = 0;         ///< capacity (the K of Top-K)
  std::int32_t* count = nullptr;  ///< current number of valid entries
};

/// A read-only snapshot view of one pin/transition's Top-K store with its
/// count resolved: what the value-parameterized merge/eval kernels consume,
/// whether the entries live in the engine's flat arrays or in a
/// ScenarioBatch copy-on-write overlay.
struct TopKConstView {
  const float* arr = nullptr;
  const float* mu = nullptr;
  const float* sig = nullptr;
  const std::int32_t* sp = nullptr;
  std::int32_t cnt = 0;
};

/// topk_equal between a freshly merged store and a const snapshot view:
/// same count and byte-identical entries.
inline bool topk_equal_const(const TopKView& a, const TopKConstView& b) {
  const std::int32_t n = *a.count;
  if (n != b.cnt) return false;
  const auto fb = static_cast<std::size_t>(n) * sizeof(float);
  const auto ib = static_cast<std::size_t>(n) * sizeof(std::int32_t);
  return std::memcmp(a.arr, b.arr, fb) == 0 &&
         std::memcmp(a.mu, b.mu, fb) == 0 &&
         std::memcmp(a.sig, b.sig, fb) == 0 &&
         std::memcmp(a.sp, b.sp, ib) == 0;
}

/// Step 2's placement of topk_insert: shifts the entries in [0, pos) that
/// are smaller than `arr` down one slot and writes the new entry in sorted
/// position. Slot `pos` must be free (past the count, or the dropped
/// smallest entry). Shared with the merge kernels' seed step, whose
/// exactness rests on running this same loop.
inline void topk_place(const TopKView& v, std::int32_t pos, float arr,
                       float mu, float sig, std::int32_t sp) {
  while (pos > 0 && v.arr[pos - 1] < arr) {
    v.arr[pos] = v.arr[pos - 1];
    v.mu[pos] = v.mu[pos - 1];
    v.sig[pos] = v.sig[pos - 1];
    v.sp[pos] = v.sp[pos - 1];
    --pos;
  }
  v.arr[pos] = arr;
  v.mu[pos] = mu;
  v.sig[pos] = sig;
  v.sp[pos] = sp;
}

/// Algorithm 2 of the paper — the one maintained insert kernel (a
/// binary-heap variant used to exist for the Section III-E ablation; it
/// lost that ablation and was removed when the merge loop was vectorized).
/// Inserts a startpoint-tagged arrival into a fixed-size descending list
/// while keeping startpoints unique.
///
/// Startpoint-uniqueness invariant: at most one entry per startpoint tag
/// may exist in the list at any time. CPPR credit is a function of the
/// (startpoint, endpoint) pair, so two entries with the same tag would
/// describe the same credited path family and the smaller one could never
/// win a slack query — keeping only the per-startpoint maximum is what
/// makes K slots cover K *distinct* credit scenarios (the paper's core
/// trick). The scan of step 1 preserves the invariant on every insert;
/// callers (and the vectorized group pre-filter in topk_simd.cpp) may
/// drop candidates early only when the drop provably cannot violate the
/// per-startpoint maximum — e.g. a candidate at or below a full list's
/// minimum kept arrival loses against every entry, including one with its
/// own tag. The merge kernels' seed step relies on the invariant from the
/// other side: one parent list filling an empty destination carries no
/// repeated tag, so it skips step 1 (and, holding at most K entries, the
/// full-list branch of step 2).
///
/// Step 1 — if `sp` is already present, update it when the new arrival
/// is larger (then bubble it up to restore descending order).
/// Step 2 — otherwise insert in sorted position, shifting entries down and
/// dropping the smallest when the list is full.
///
/// O(K) comparisons and shifts per call; with the K candidate entries of
/// each fanin arc this gives the O(K^2) per-merge cost analysed in
/// Section III-E.
///
/// Returns true when the candidate was pruned: the list was full and the
/// arrival did not beat the smallest kept entry (the Top-K filtering the
/// paper relies on for sub-linear growth of merge work).
inline bool topk_insert(const TopKView& v, float arr, float mu, float sig,
                        std::int32_t sp) {
  const std::int32_t n = *v.count;
  // Step 1: startpoint uniqueness check.
  for (std::int32_t j = 0; j < n; ++j) {
    if (v.sp[j] != sp) continue;
    if (arr > v.arr[j]) {
      v.arr[j] = arr;
      v.mu[j] = mu;
      v.sig[j] = sig;
      // Bubble up to restore descending order.
      std::int32_t i = j;
      while (i > 0 && v.arr[i - 1] < v.arr[i]) {
        std::swap(v.arr[i - 1], v.arr[i]);
        std::swap(v.mu[i - 1], v.mu[i]);
        std::swap(v.sig[i - 1], v.sig[i]);
        std::swap(v.sp[i - 1], v.sp[i]);
        --i;
      }
    }
    return false;  // exit once the existing startpoint is found
  }
  // Step 2: insert as a new startpoint if it qualifies.
  std::int32_t pos = n;
  if (n == v.k) {
    if (arr <= v.arr[n - 1]) return true;  // below the smallest kept entry
    pos = n - 1;
  } else {
    *v.count = n + 1;
  }
  // Shift smaller entries down and place the new one in sorted position.
  topk_place(v, pos, arr, mu, sig, sp);
  return false;
}

/// Bitwise equality of two Top-K stores: same count and byte-identical
/// entries. This is the value-change test of the frontier-sparse
/// incremental pass — a pin whose re-merged list compares equal cannot
/// change anything downstream, so its fanout is not re-dirtied. Bitwise
/// (not epsilon) comparison is what keeps the sparse pass provably
/// identical to a full re-sweep: the merge kernel is deterministic, so
/// unchanged inputs reproduce the exact same bytes.
inline bool topk_equal(const TopKView& a, const TopKView& b) {
  const std::int32_t n = *a.count;
  if (n != *b.count) return false;
  const auto fb = static_cast<std::size_t>(n) * sizeof(float);
  const auto ib = static_cast<std::size_t>(n) * sizeof(std::int32_t);
  return std::memcmp(a.arr, b.arr, fb) == 0 &&
         std::memcmp(a.mu, b.mu, fb) == 0 &&
         std::memcmp(a.sig, b.sig, fb) == 0 &&
         std::memcmp(a.sp, b.sp, ib) == 0;
}

/// Copies the valid entries (and count) of `src` into `dst`. Capacities
/// must match; only the first *src.count slots are written.
inline void topk_copy(const TopKView& dst, const TopKView& src) {
  const std::int32_t n = *src.count;
  const auto fb = static_cast<std::size_t>(n) * sizeof(float);
  const auto ib = static_cast<std::size_t>(n) * sizeof(std::int32_t);
  std::memcpy(dst.arr, src.arr, fb);
  std::memcpy(dst.mu, src.mu, fb);
  std::memcpy(dst.sig, src.sig, fb);
  std::memcpy(dst.sp, src.sp, ib);
  *dst.count = n;
}

}  // namespace insta::core
