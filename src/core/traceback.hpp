// Optimal-decision recovery from a solved min-plus table.
//
// split_at() recomputes one cell from its final sub-cells and names the k
// of its best candidate, or -1 when the cell's seed survived; that costs
// O(j - i). visit_splits() walks the implied binary split tree — the
// optimal parenthesization / BST shape / triangulation — calling split_at
// only on the tree's own cells, so a whole tree costs O(n^2) at worst.
// No second table is kept during the solve.
#pragma once

#include <stdexcept>
#include <utility>
#include <vector>

#include "core/instance.hpp"

namespace cellnpdp {

/// The optimal split of cell (i, j) of `d`, a solved min-plus table of
/// `inst` (anything with at(i, j)). Each candidate is the engine's own
/// expression: (d[i][k] (x) d[k][j]) (x) the instance's k-term, then the
/// weight in general mode. Returns -1 when no candidate strictly improves
/// on the cell's seed — init(i,j) (+) init(i,j) (x) init(i,i) in pure mode,
/// init(i,j) in general mode — and otherwise the smallest k in (i, j)
/// attaining the best candidate. Never throws.
template <class T, class Table>
index_t split_at(const Table& d, const NpdpInstance<T>& inst, index_t i,
                 index_t j) {
  using S = MinPlusSemiring<T>;
  if (j - i < 2) return -1;
  const bool general = inst.general_mode();
  const T init = inst.init(i, j);
  T best = general ? init : S::plus(init, S::times(init, inst.init(i, i)));
  const T w = inst.weight ? inst.weight(i, j) : S::one();
  index_t arg = -1;
  for (index_t k = i + 1; k < j; ++k) {
    T cand = S::times(d.at(i, k), d.at(k, j));
    if (inst.ku != nullptr)
      cand = S::times(cand, inst.ku[i] * inst.kv[k] * inst.kw[j]);
    if (inst.kterm) cand = S::times(cand, inst.kterm(i, k, j));
    if (general) cand = S::times(w, cand);
    if (S::improves(cand, best)) {
      best = cand;
      arg = k;
    }
  }
  return arg;
}

/// Calls fn(i, k, j) for every split on the optimal decision tree of `d`
/// rooted at (i, j), in pre-order: a split, then its (i,k) subtree, then
/// its (k,j) subtree. Cells whose seed survived are leaves. Min-plus only.
template <class T, class Table, class Fn>
void visit_splits(const Table& d, const NpdpInstance<T>& inst, index_t i,
                  index_t j, Fn&& fn) {
  if (inst.semiring != SemiringId::MinPlus)
    throw std::invalid_argument("split traceback requires min-plus");
  std::vector<std::pair<index_t, index_t>> todo{{i, j}};
  while (!todo.empty()) {
    const auto [a, b] = todo.back();
    todo.pop_back();
    const index_t k = split_at(d, inst, a, b);
    if (k < 0) continue;
    fn(a, k, b);
    todo.emplace_back(k, b);
    todo.emplace_back(a, k);
  }
}

}  // namespace cellnpdp
