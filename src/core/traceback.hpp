// Optimal-decision recovery.
//
// With argmin tracking enabled the engine records, per cell, the k whose
// relaxation produced the final value (or -1 when the seed / init value
// survived). visit_splits() walks the implied binary split tree — the
// optimal parenthesization / BST shape / bifurcation structure.
#pragma once

#include <functional>
#include <optional>

#include "core/engine.hpp"
#include "core/instance.hpp"
#include "core/solve.hpp"

namespace cellnpdp {

template <class T>
struct NpdpSolution {
  BlockedTriangularMatrix<T> values;
  BlockedTriangularMatrix<T> argmin;  ///< k per cell, as T; -1 = no split

  index_t argmin_at(index_t i, index_t j) const {
    return static_cast<index_t>(argmin.at(i, j));
  }
};

/// Solves with argmin tracking over the block scheduler (ctx.tuning
/// threads), honouring the context's cancel token at memory-block
/// granularity. Both tables may hold anything beforehand, as long as
/// sol.values is padded with the min-plus zero. On Cancelled the solution
/// holds a partial (never torn) pair of tables.
template <class T>
SolveStatus solve_blocked_with_argmin_into(NpdpSolution<T>& sol,
                                           const NpdpInstance<T>& inst,
                                           const ExecutionContext& ctx) {
  BlockEngine<T> engine(sol.values, inst, ctx.tuning);
  engine.set_argmin(&sol.argmin);
  return detail::solve_local(engine, sol.values, ctx, /*checksums=*/false);
}

/// Solves with argmin tracking (allocating form).
template <class T>
NpdpSolution<T> solve_blocked_with_argmin(const NpdpInstance<T>& inst,
                                          const NpdpOptions& opts) {
  NpdpSolution<T> sol{
      BlockedTriangularMatrix<T>(inst.n, opts.block_side),
      BlockedTriangularMatrix<T>(inst.n, opts.block_side)};
  ExecutionContext ctx;
  ctx.tuning = opts;
  solve_blocked_with_argmin_into(sol, inst, ctx);
  return sol;
}

/// Calls fn(i, k, j) for every split on the optimal decision tree rooted at
/// (i, j), recursing into (i,k) and (k,j). Cells whose value came from
/// their seed are leaves.
template <class T, class Fn>
void visit_splits(const NpdpSolution<T>& sol, index_t i, index_t j,
                  Fn&& fn) {
  if (i >= j) return;
  const index_t k = sol.argmin_at(i, j);
  if (k < 0) return;  // seed value survived: leaf
  fn(i, k, j);
  visit_splits(sol, i, k, fn);
  visit_splits(sol, k, j, fn);
}

}  // namespace cellnpdp
