// Optimal matrix-chain parenthesization — one of the three NPDP
// applications the paper names (§I). In boundary form the recurrence is
// exactly the engine's generalised NPDP with a separable k-term:
//
//   c[i][j] = min_{i<k<j} c[i][k] + c[k][j] + p[i]*p[k]*p[j]
//   c[i][i+1] = 0                       (a single matrix costs nothing)
//
// over boundary nodes 0..n for a chain of n matrices with dimensions
// p[0] x p[1], p[1] x p[2], ...
#pragma once

#include <algorithm>
#include <string>
#include <vector>

#include "core/reference.hpp"
#include "core/solve.hpp"
#include "core/traceback.hpp"
#include "layout/convert.hpp"

namespace cellnpdp {

template <class T>
struct MatrixChainResult {
  T cost = 0;                    ///< minimal scalar multiplications
  std::string parenthesization;  ///< e.g. "((A0 A1) A2)"
};

/// Builds the engine instance for dimension vector p (size n+1).
template <class T>
NpdpInstance<T> matrix_chain_instance(const std::vector<T>& p) {
  NpdpInstance<T> inst;
  inst.n = static_cast<index_t>(p.size());
  inst.init = [](index_t i, index_t j) {
    if (i == j || j == i + 1) return T(0);
    return minplus_identity<T>();
  };
  inst.ku = p.data();
  inst.kv = p.data();
  inst.kw = p.data();
  return inst;
}

namespace matrix_chain_detail {

/// Appends the parenthesization of boundary span (i, j) to out; split(i, j)
/// names the span's optimal split point (a negative one reads as i + 1).
template <class Split>
void render(const Split& split, index_t i, index_t j, std::string& out) {
  if (j <= i) return;  // a chain of no matrices
  if (j == i + 1) {
    out += "A" + std::to_string(i);
    return;
  }
  out += "(";
  const index_t k = std::max(split(i, j), i + 1);
  render(split, i, k, out);
  out += " ";
  render(split, k, j, out);
  out += ")";
}

}  // namespace matrix_chain_detail

/// Solves the chain with the blocked engine under an ExecutionContext
/// (cancellation + deadline, tuning, stats). On Cancelled `out` is left
/// untouched and the partial table is discarded.
template <class T>
SolveStatus solve_matrix_chain(const std::vector<T>& p,
                               const ExecutionContext& ctx,
                               MatrixChainResult<T>* out) {
  const auto inst = matrix_chain_instance(p);
  BlockedTriangularMatrix<T> table(inst.n, ctx.tuning.block_side);
  const SolveStatus st = solve_blocked_into(table, inst, ctx);
  if (st != SolveStatus::Ok) return st;
  out->cost = table.at(0, inst.n - 1);
  out->parenthesization.clear();
  matrix_chain_detail::render(
      [&](index_t i, index_t j) { return split_at(table, inst, i, j); }, 0,
      inst.n - 1, out->parenthesization);
  return SolveStatus::Ok;
}

/// Solves the chain with the blocked engine.
template <class T>
MatrixChainResult<T> solve_matrix_chain(const std::vector<T>& p,
                                        const NpdpOptions& opts) {
  ExecutionContext ctx;
  ctx.tuning = opts;
  MatrixChainResult<T> res;
  solve_matrix_chain(p, ctx, &res);
  return res;
}

/// Classic textbook O(n^3) reference with an explicit split table.
template <class T>
MatrixChainResult<T> solve_matrix_chain_reference(const std::vector<T>& p) {
  const index_t nodes = static_cast<index_t>(p.size());
  TriangularMatrix<T> c(nodes);
  std::vector<index_t> split(static_cast<std::size_t>(nodes * nodes), -1);
  for (index_t i = 0; i < nodes; ++i) c.at(i, i) = T(0);
  for (index_t i = 0; i + 1 < nodes; ++i) c.at(i, i + 1) = T(0);
  for (index_t span = 2; span < nodes; ++span)
    for (index_t i = 0; i + span < nodes; ++i) {
      const index_t j = i + span;
      T best = minplus_identity<T>();
      index_t arg = i + 1;
      for (index_t k = i + 1; k < j; ++k) {
        const T cand = c.at(i, k) + c.at(k, j) +
                       p[static_cast<std::size_t>(i)] *
                           p[static_cast<std::size_t>(k)] *
                           p[static_cast<std::size_t>(j)];
        if (cand < best) {
          best = cand;
          arg = k;
        }
      }
      c.at(i, j) = best;
      split[static_cast<std::size_t>(i * nodes + j)] = arg;
    }
  MatrixChainResult<T> res;
  res.cost = c.at(0, nodes - 1);
  matrix_chain_detail::render(
      [&](index_t i, index_t j) {
        return split[static_cast<std::size_t>(i * nodes + j)];
      },
      0, nodes - 1, res.parenthesization);
  return res;
}

}  // namespace cellnpdp
