// Runtime kernel selection.
//
// The blocked engine is parameterised by a KernelKind:
//   Scalar - no SIMD at all (the ablation baseline; never auto-vectorised)
//   Native - the 128-bit width of the paper's platforms (SSE: 4 floats or
//            2 doubles per register, mirroring the Cell SPE exactly)
//   Wide   - the 256-bit AVX2 extension kernel (8 floats / 4 doubles),
//            one of the "wider machines" ablations
//
// and by a semiring S (default min-plus): cb_kernel<T, S>(kind) returns
// the bundle of S-specialised computing-block kernels, plus the strided
// block products the engine runs stage 1 and stage 2's recursion on.
#pragma once

#include <string_view>

#include "simd/kernels.hpp"
#include "simd/semiring.hpp"

namespace cellnpdp {

enum class KernelKind { Scalar, Native, Wide };

constexpr std::string_view kernel_kind_name(KernelKind k) {
  switch (k) {
    case KernelKind::Scalar: return "scalar";
    case KernelKind::Native: return "simd128";
    case KernelKind::Wide: return "simd256";
  }
  return "?";
}

template <class T>
struct CbKernel {
  using PureFn = void (*)(T*, index_t, const T*, index_t, const T*, index_t);
  using SepFn = void (*)(T*, index_t, const T*, index_t, const T*, index_t,
                         const T*, const T*, const T*);
  using BlockFn = void (*)(T*, const T*, const T*, index_t, index_t,
                           index_t, index_t);
  using BlockSepFn = void (*)(T*, const T*, const T*, index_t, index_t,
                              index_t, index_t, const T*, const T*,
                              const T*);

  index_t width = 4;       ///< computing-block side in cells
  PureFn pure = nullptr;   ///< C = C (+) (A (x) B)
  SepFn sep = nullptr;     ///< with separable u*v*w factor
  /// Pure block product (C, A, B, rows, depth, cols, ld): rows x cols of
  /// C at stride ld relaxed by rows x depth of A and depth x cols of B;
  /// every size a multiple of width.
  BlockFn block = nullptr;
  BlockSepFn block_sep = nullptr;  ///< block with the separable factor
  KernelKind kind = KernelKind::Scalar;
};

namespace detail {

template <class S, class T, int W>
CELLNPDP_NOVEC void scalar_pure_fixed(T* C, index_t sc, const T* A, index_t sa,
                                      const T* B, index_t sb) {
  semiring_tile_scalar<S, T>(C, sc, A, sa, B, sb, W, W, W);
}

template <class S, class T, int W>
CELLNPDP_NOVEC void scalar_sep_fixed(T* C, index_t sc, const T* A, index_t sa,
                                     const T* B, index_t sb, const T* u,
                                     const T* v, const T* w) {
  semiring_tile_scalar_sep<S, T>(C, sc, A, sa, B, sb, W, W, W, u, v, w);
}

template <class S, class T>
CELLNPDP_NOVEC void scalar_block(T* C, const T* A, const T* B, index_t rows,
                                 index_t depth, index_t cols, index_t ld) {
  semiring_tile_scalar<S, T>(C, ld, A, ld, B, ld, rows, depth, cols);
}

template <class S, class T>
CELLNPDP_NOVEC void scalar_block_sep(T* C, const T* A, const T* B,
                                     index_t rows, index_t depth,
                                     index_t cols, index_t ld, const T* u,
                                     const T* v, const T* w) {
  semiring_tile_scalar_sep<S, T>(C, ld, A, ld, B, ld, rows, depth, cols, u,
                                 v, w);
}

}  // namespace detail

/// Returns the computing-block kernel bundle for (T, S, kind). The
/// returned width always divides the engine's default memory-block sides.
/// Defaults to min-plus, which keeps every historical call site intact.
template <class T, class S = MinPlusSemiring<T>>
CbKernel<T> cb_kernel(KernelKind kind) {
  CbKernel<T> k;
  k.kind = kind;
  switch (kind) {
    case KernelKind::Scalar:
      k.width = 4;
      k.pure = &detail::scalar_pure_fixed<S, T, 4>;
      k.sep = &detail::scalar_sep_fixed<S, T, 4>;
      k.block = &detail::scalar_block<S, T>;
      k.block_sep = &detail::scalar_block_sep<S, T>;
      break;
    case KernelKind::Native: {
      constexpr int W = sizeof(T) == 4 ? 4 : 2;
      k.width = W;
      k.pure = &semiring_cb<S, T, W>;
      k.sep = &semiring_cb_sep<S, T, W>;
      k.block = &semiring_block<S, T, W>;
      k.block_sep = &semiring_block_sep<S, T, W>;
      break;
    }
    case KernelKind::Wide: {
      constexpr int W = sizeof(T) == 4 ? 8 : 4;
      k.width = W;
      k.pure = &semiring_cb<S, T, W>;
      k.sep = &semiring_cb_sep<S, T, W>;
      k.block = &semiring_block<S, T, W>;
      k.block_sep = &semiring_block_sep<S, T, W>;
      break;
    }
  }
  return k;
}

}  // namespace cellnpdp
