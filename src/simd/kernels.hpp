// Computing-block kernels (paper §IV-A, Fig. 6), generic over a semiring.
//
// A *computing block* is a WxW tile; the kernel relaxes C = C (+) (A (x) B)
// where (x) is the semiring "matrix product" of Fig. 6(b):
//
//     C[r][c] = C[r][c] (+) (+)_k A[r][k] (x) B[k][c]
//
// For (min,+) this is exactly the paper's kernel: C[r][c] =
// min(C[r][c], min_k A[r][k] + B[k][c]). The register-cached schedule is
// the paper's 80-instruction variant regardless of the semiring: the W rows
// of B are loaded once, each C row is loaded, relaxed with W
// splat+times+plus steps, and stored — 12 loads, 16 shuffles, 16 (x), 16
// compares, 16 selects, 4 stores for W = 4 (Table I; for non-idempotent
// (+) the compare+select pair is a single lane add instead).
//
// The separable variant additionally folds a per-(r,k,c) factor
// u[r]*v[k]*w[c] (an ordinary product, (x)-combined with the candidate),
// which is what the optimal-matrix-parenthesization instance needs
// (p_i * p_k * p_j); pure NPDP passes no term.
//
// semiring_block[_sep] apply the same relaxation to a rows x depth x cols
// sub-product of strided memory blocks, every side a multiple of W: a
// 4-row x 2-vector panel of C stays in registers while k streams over the
// depth, so C is loaded and stored once per product rather than once per
// WxW tile. Stage 1 of the engine calls it on whole memory blocks, stage 2
// on the strips of its recursion.
//
// The minplus_* entry points below are thin aliases onto the generic
// kernels instantiated with MinPlusSemiring — same instructions, same
// results, kept for the existing call sites and the op-count model.
#pragma once

#include <utility>

#include "common/defs.hpp"
#include "simd/semiring.hpp"
#include "simd/vec.hpp"

// Keep the compiler from auto-vectorising the deliberately scalar ablation
// kernels, otherwise the "SIMD off" measurements silently use SIMD. GCC
// honours the function attribute; clang ignores it (and has no equivalent
// function-level spelling), so the scalar kernels additionally carry
// CELLNPDP_NOVEC_LOOP on their inner loops, which clang does honour.
#if defined(__GNUC__) && !defined(__clang__)
#define CELLNPDP_NOVEC __attribute__((optimize("no-tree-vectorize")))
#else
#define CELLNPDP_NOVEC
#endif

#if defined(__clang__)
#define CELLNPDP_NOVEC_LOOP \
  _Pragma("clang loop vectorize(disable) interleave(disable)")
#else
#define CELLNPDP_NOVEC_LOOP
#endif

namespace cellnpdp {

namespace detail {

template <class S, class T, int W, std::size_t... K>
inline Vec<T, W> semiring_row(Vec<T, W> c, Vec<T, W> a, const Vec<T, W>* b,
                              std::index_sequence<K...>) {
  ((c = S::template vplus<W>(
        c, S::template vtimes<W>(Vec<T, W>::template splat<K>(a), b[K]))),
   ...);
  return c;
}

template <class S, class T, int W, std::size_t... K>
inline Vec<T, W> semiring_row_sep(Vec<T, W> c, Vec<T, W> a,
                                  const Vec<T, W>* b, const T* uv,
                                  Vec<T, W> wv, std::index_sequence<K...>) {
  // The factor product is associated (u*v)*w to stay bit-identical to the
  // scalar reference path.
  ((c = S::template vplus<W>(
        c, S::template vtimes<W>(
               S::template vtimes<W>(Vec<T, W>::template splat<K>(a), b[K]),
               Vec<T, W>::set1(uv[K]) * wv))),
   ...);
  return c;
}

}  // namespace detail

/// Register-cached WxW computing-block relaxation: C = C (+) (A (x) B).
/// sc/sa/sb are row strides in elements; rows must be kBufferAlignment
/// aligned when a SIMD Vec specialisation is selected.
template <class S, class T, int W>
inline void semiring_cb(T* C, index_t sc, const T* A, index_t sa, const T* B,
                        index_t sb) {
  using V = Vec<T, W>;
  V b[W];
  for (int k = 0; k < W; ++k) b[k] = V::load(B + k * sb);
  for (int r = 0; r < W; ++r) {
    V c = V::load(C + r * sc);
    const V a = V::load(A + r * sa);
    c = detail::semiring_row<S, T, W>(c, a, b, std::make_index_sequence<W>{});
    c.store(C + r * sc);
  }
}

/// As semiring_cb but with the separable extra factor u[r]*v[k]*w[c]:
///     C[r][c] = C[r][c] (+) (+)_k (A[r][k] (x) B[k][c]) (x) u[r]*v[k]*w[c]
/// u/v/w point at the W per-row / per-k / per-column factors of this tile.
template <class S, class T, int W>
inline void semiring_cb_sep(T* C, index_t sc, const T* A, index_t sa,
                            const T* B, index_t sb, const T* u, const T* v,
                            const T* w) {
  using V = Vec<T, W>;
  const V wv = V::load(w);
  V b[W];
  for (int k = 0; k < W; ++k) b[k] = V::load(B + k * sb);
  for (int r = 0; r < W; ++r) {
    V c = V::load(C + r * sc);
    const V a = V::load(A + r * sa);
    T uv[W];
    for (int k = 0; k < W; ++k) uv[k] = u[r] * v[k];
    c = detail::semiring_row_sep<S, T, W>(c, a, b, uv, wv,
                                          std::make_index_sequence<W>{});
    c.store(C + r * sc);
  }
}

namespace detail {

template <class T, int W, std::size_t... V>
inline void panel_load(Vec<T, W>* dst, const T* src,
                       std::index_sequence<V...>) {
  ((dst[V] = Vec<T, W>::load(src + V * W)), ...);
}

template <class T, int W, std::size_t... V>
inline void panel_store(const Vec<T, W>* src, T* dst,
                        std::index_sequence<V...>) {
  (src[V].store(dst + V * W), ...);
}

template <class S, class T, int W, std::size_t... V>
inline void panel_row(Vec<T, W>* c, Vec<T, W> a, const Vec<T, W>* b,
                      std::index_sequence<V...>) {
  ((c[V] = S::template vplus<W>(c[V], S::template vtimes<W>(a, b[V]))), ...);
}

template <class S, class T, int W, std::size_t... V>
inline void panel_row_sep(Vec<T, W>* c, Vec<T, W> a, const Vec<T, W>* b,
                          Vec<T, W> uv, const Vec<T, W>* wv,
                          std::index_sequence<V...>) {
  // Same association as semiring_row_sep: (a (x) b) (x) ((u*v)*w).
  ((c[V] = S::template vplus<W>(
        c[V], S::template vtimes<W>(S::template vtimes<W>(a, b[V]),
                                    uv * wv[V]))),
   ...);
}

/// One register panel of a block product: rows r0+R... and NV vectors from
/// column c0 of C, held in registers while k streams over the depth.
/// A[r][k] is broadcast from memory; u/v/w are read only when Sep.
template <class S, class T, int W, int NV, bool Sep, std::size_t... R>
inline void semiring_panel(T* C, const T* A, const T* B, index_t depth,
                           index_t ld, index_t r0, index_t c0, const T* u,
                           const T* v, const T* w,
                           std::index_sequence<R...>) {
  using V = Vec<T, W>;
  constexpr auto vs = std::make_index_sequence<NV>{};
  C += r0 * ld + c0;
  A += r0 * ld;
  B += c0;
  V c[sizeof...(R)][NV];
  V wv[NV]{};
  (panel_load<T, W>(c[R], C + R * ld, vs), ...);
  if constexpr (Sep) panel_load<T, W>(wv, w + c0, vs);
  for (index_t k = 0; k < depth; ++k) {
    V b[NV];
    panel_load<T, W>(b, B + k * ld, vs);
    if constexpr (Sep) {
      (panel_row_sep<S, T, W>(c[R], V::set1(A[R * ld + k]), b,
                              V::set1(u[r0 + R] * v[k]), wv, vs),
       ...);
    } else {
      (panel_row<S, T, W>(c[R], V::set1(A[R * ld + k]), b, vs), ...);
    }
  }
  (panel_store<T, W>(c[R], C + R * ld, vs), ...);
}

template <class S, class T, int W, bool Sep>
inline void semiring_block_impl(T* C, const T* A, const T* B, index_t rows,
                                index_t depth, index_t cols, index_t ld,
                                const T* u, const T* v, const T* w) {
  // 4 rows x 2 vectors: 8 accumulators, 2 B vectors and 1 broadcast fit
  // the 16 vector registers of x86-64; wider panels spill.
  constexpr int kRows = 4;
  constexpr index_t kPanel = 2 * W;
  const auto row_panel = [&](index_t r, auto panel_rows) {
    index_t c = 0;
    for (; c + kPanel <= cols; c += kPanel)
      semiring_panel<S, T, W, 2, Sep>(C, A, B, depth, ld, r, c, u, v, w,
                                      panel_rows);
    if (c < cols)  // cols is a multiple of W: the tail is one vector wide
      semiring_panel<S, T, W, 1, Sep>(C, A, B, depth, ld, r, c, u, v, w,
                                      panel_rows);
  };
  index_t r = 0;
  for (; r + kRows <= rows; r += kRows)
    row_panel(r, std::make_index_sequence<kRows>{});
  for (; r < rows; ++r) row_panel(r, std::index_sequence<0>{});
}

}  // namespace detail

/// Register-blocked block product C = C (+) (A (x) B) over a rows x cols
/// block of C, a rows x depth block of A and a depth x cols block of B,
/// all at row stride ld; every size is a multiple of W. Every C cell folds
/// its depth candidates in ascending k, the order a walk of WxW
/// semiring_cb calls over the tile triples gives, so the results are
/// bit-identical; only the C loads and stores between tiles are gone.
template <class S, class T, int W>
inline void semiring_block(T* C, const T* A, const T* B, index_t rows,
                           index_t depth, index_t cols, index_t ld) {
  detail::semiring_block_impl<S, T, W, false>(C, A, B, rows, depth, cols, ld,
                                              nullptr, nullptr, nullptr);
}

/// semiring_block with the separable factor u[r]*v[k]*w[c] of
/// semiring_cb_sep; u/v/w point at the product's first row, k and column.
template <class S, class T, int W>
inline void semiring_block_sep(T* C, const T* A, const T* B, index_t rows,
                               index_t depth, index_t cols, index_t ld,
                               const T* u, const T* v, const T* w) {
  detail::semiring_block_impl<S, T, W, true>(C, A, B, rows, depth, cols, ld,
                                             u, v, w);
}

/// The paper's (min,+) kernel: semiring_cb instantiated with min-plus.
template <class T, int W>
inline void minplus_cb(T* C, index_t sc, const T* A, index_t sa, const T* B,
                       index_t sb) {
  semiring_cb<MinPlusSemiring<T>, T, W>(C, sc, A, sa, B, sb);
}

/// (min,+) kernel with the separable term u[r]*v[k]*w[c].
template <class T, int W>
inline void minplus_cb_sep(T* C, index_t sc, const T* A, index_t sa,
                           const T* B, index_t sb, const T* u, const T* v,
                           const T* w) {
  semiring_cb_sep<MinPlusSemiring<T>, T, W>(C, sc, A, sa, B, sb, u, v, w);
}

/// Deliberately scalar relaxation of a rows x cols block of C by a
/// rows x depth block of A and a depth x cols block of B, used by the
/// "SIMD off" ablation and by the baselines. Never auto-vectorised.
template <class S, class T>
CELLNPDP_NOVEC void semiring_tile_scalar(T* C, index_t sc, const T* A,
                                         index_t sa, const T* B, index_t sb,
                                         index_t rows, index_t depth,
                                         index_t cols) {
  for (index_t r = 0; r < rows; ++r)
    for (index_t k = 0; k < depth; ++k) {
      const T a = A[r * sa + k];
      CELLNPDP_NOVEC_LOOP
      for (index_t c = 0; c < cols; ++c) {
        const T cand = S::times(a, B[k * sb + c]);
        T& dst = C[r * sc + c];
        if constexpr (S::idempotent) {
          if (S::improves(cand, dst)) dst = cand;
        } else {
          dst = S::plus(dst, cand);
        }
      }
    }
}

/// Scalar separable-term relaxation of the same shape.
template <class S, class T>
CELLNPDP_NOVEC void semiring_tile_scalar_sep(T* C, index_t sc, const T* A,
                                             index_t sa, const T* B,
                                             index_t sb, index_t rows,
                                             index_t depth, index_t cols,
                                             const T* u, const T* v,
                                             const T* w) {
  for (index_t r = 0; r < rows; ++r)
    for (index_t k = 0; k < depth; ++k) {
      const T avk = A[r * sa + k];
      const T uv = u[r] * v[k];
      CELLNPDP_NOVEC_LOOP
      for (index_t c = 0; c < cols; ++c) {
        const T cand = S::times(S::times(avk, B[k * sb + c]), uv * w[c]);
        T& dst = C[r * sc + c];
        if constexpr (S::idempotent) {
          if (S::improves(cand, dst)) dst = cand;
        } else {
          dst = S::plus(dst, cand);
        }
      }
    }
}

/// (min,+) scalar tile (the ablation baseline's historical entry point).
template <class T>
CELLNPDP_NOVEC void minplus_tile_scalar(T* C, index_t sc, const T* A,
                                        index_t sa, const T* B, index_t sb,
                                        index_t side) {
  semiring_tile_scalar<MinPlusSemiring<T>, T>(C, sc, A, sa, B, sb, side,
                                              side, side);
}

/// (min,+) scalar separable-term tile.
template <class T>
CELLNPDP_NOVEC void minplus_tile_scalar_sep(T* C, index_t sc, const T* A,
                                            index_t sa, const T* B,
                                            index_t sb, index_t side,
                                            const T* u, const T* v,
                                            const T* w) {
  semiring_tile_scalar_sep<MinPlusSemiring<T>, T>(C, sc, A, sa, B, sb, side,
                                                  side, side, u, v, w);
}

/// Instruction mix of one WxW computing-block relaxation as it would be
/// emitted for the Cell SPE ISA (which has no lane-wise min: each min costs
/// a compare plus a select). Consumed by the SPU pipeline model.
struct KernelOpCounts {
  int loads = 0;
  int shuffles = 0;
  int adds = 0;
  int compares = 0;
  int selects = 0;
  int stores = 0;

  int total() const {
    return loads + shuffles + adds + compares + selects + stores;
  }
};

/// The paper's register-cached schedule (Table I): 80 instructions at W = 4.
constexpr KernelOpCounts cb_op_counts_cached(int w) {
  // B rows + C rows + A rows loaded once each; one shuffle/add/cmp/sel per
  // (r, k) pair; one store per C row.
  return {3 * w, w * w, w * w, w * w, w * w, w};
}

/// The naive schedule (Fig. 6(b) repeated per step): 128 instructions at
/// W = 4 — every step reloads C, B and A and stores C.
constexpr KernelOpCounts cb_op_counts_uncached(int w) {
  return {3 * w * w, w * w, w * w, w * w, w * w, w * w};
}

}  // namespace cellnpdp
