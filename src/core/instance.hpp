// Problem description and tuning options for the NPDP engine.
#pragma once

#include <cstddef>
#include <functional>

#include "common/defs.hpp"
#include "simd/dispatch.hpp"
#include "simd/semiring.hpp"

namespace cellnpdp {

/// One NPDP instance.
///
/// Semantics (DESIGN.md §5). With `init` only (pure mode) the engine solves
/// exactly the paper's Fig. 1 loop nest:
///
///     d[i][j] seeded with init(i,j)
///     for j asc, i desc, k in [i, j):  d[i][j] = min(d[i][j], d[i][k]+d[k][j])
///
/// (the k == i self-term is folded into the seed, which is equivalent for
/// every input because diagonal cells are never rewritten).
///
/// With `weight` and/or the separable k-term (ku/kv/kw) set, the engine
/// solves the generalised NPDP recurrence used by the application instances:
///
///     d[i][i] = init(i,i)
///     d[i][j] = min( init(i,j),
///                    weight(i,j) + min_{i<k<j} d[i][k] + d[k][j]
///                                            + ku[i]*kv[k]*kw[j] )
///
/// which covers optimal BST (weight = probability prefix sums) and optimal
/// matrix parenthesization (ku = kv = kw = dimension vector p).
template <class T>
struct NpdpInstance {
  index_t n = 0;

  /// The semiring the recurrence is evaluated in. min/max substitute for
  /// min in the semantics above; counting replaces (min, +) with (+, *).
  /// Every solver dispatches on this tag (see with_semiring).
  SemiringId semiring = SemiringId::MinPlus;

  /// Required: initial value of cell (i,j), 0 <= i <= j < n.
  std::function<T(index_t, index_t)> init;

  /// Optional k-independent per-cell weight (general mode).
  std::function<T(index_t, index_t)> weight;

  /// Optional separable per-k term ku[i]*kv[k]*kw[j]; all three point at
  /// caller-owned arrays of length n, or are all null.
  const T* ku = nullptr;
  const T* kv = nullptr;
  const T* kw = nullptr;

  /// Optional *general* per-relaxation term g(i,k,j), for costs that do
  /// not factor (e.g. polygon-triangulation triangle weights). The engine
  /// relaxes it with scalar block products (functor calls cannot
  /// vectorise) and calls it only with indices below n; mutually exclusive
  /// with the separable term.
  std::function<T(index_t, index_t, index_t)> kterm;

  /// General mode: seed +inf, finalize with min(init, weight + acc).
  /// Pure mode: seed init and relax in place (bit-exact Fig. 1).
  bool general_mode() const {
    return static_cast<bool>(weight) || ku != nullptr ||
           static_cast<bool>(kterm);
  }
};

/// Engine tuning knobs. Defaults follow the paper: ~square memory blocks a
/// few tens of KB (32 KB at side 90 for floats; we use 64 so every kernel
/// width divides it), scheduling blocks of 1x1 memory blocks, one thread.
struct NpdpOptions {
  index_t block_side = 64;   ///< memory-block side, cells; multiple of width
  index_t sched_side = 1;    ///< scheduling-block side, in memory blocks
  KernelKind kernel = KernelKind::Native;
  std::size_t threads = 1;
};

}  // namespace cellnpdp
