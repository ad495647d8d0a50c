// The simplified task dependence graph of the parallel procedure (§IV-B,
// Fig. 7).
//
// Tasks are the scheduling blocks of the upper block triangle of an m x m
// grid. Task (si,sj) truly depends on every block (si,k) and (k,sj) with
// si <= k <= sj, but the paper keeps only the two *nearest* predecessors —
// the task on its left (si,sj-1) and the task below it (si+1,sj) — because
// the chains along the row and the column transitively cover the full set
// (DESIGN.md §5). Off-diagonal tasks therefore wait for exactly two
// notifications; diagonal tasks are ready immediately. The host scheduler
// counts the full set instead (taskgraph/block_scheduler.hpp), which
// releases the same tasks at the same completions and also holds when
// inputs arrive from other processes.
#pragma once

#include <cassert>
#include <utility>
#include <vector>

#include "common/defs.hpp"

namespace cellnpdp {

class BlockDependenceGraph {
 public:
  explicit BlockDependenceGraph(index_t m) : m_(m) { assert(m >= 0); }

  index_t grid_side() const { return m_; }
  index_t task_count() const { return triangle_cells(m_); }

  /// Linear id of task (si,sj), si <= sj (block-row-major over the triangle).
  index_t task_id(index_t si, index_t sj) const {
    assert(0 <= si && si <= sj && sj < m_);
    return si * m_ - si * (si - 1) / 2 + (sj - si);
  }

  /// Inverse of task_id.
  std::pair<index_t, index_t> coords(index_t id) const {
    assert(0 <= id && id < task_count());
    index_t si = 0;
    while (id >= m_ - si) {
      id -= m_ - si;
      ++si;
    }
    return {si, si + id};
  }

  /// Number of predecessors in the simplified graph: 0 on the diagonal,
  /// 2 elsewhere (the paper's "notified twice").
  int dependency_count(index_t si, index_t sj) const {
    return si == sj ? 0 : 2;
  }

  /// The (at most two) tasks unblocked when (si,sj) finishes: the task to
  /// its right and the task above it.
  std::vector<std::pair<index_t, index_t>> dependents(index_t si,
                                                      index_t sj) const {
    std::vector<std::pair<index_t, index_t>> out;
    if (sj + 1 < m_) out.emplace_back(si, sj + 1);
    if (si - 1 >= 0) out.emplace_back(si - 1, sj);
    return out;
  }

  /// The *full* (non-simplified) dependence set of (si,sj): every (si,k) and
  /// (k,sj) other than the task itself — what BlockTracker counts. Used by
  /// tests to prove schedule validity.
  std::vector<std::pair<index_t, index_t>> full_dependencies(
      index_t si, index_t sj) const {
    std::vector<std::pair<index_t, index_t>> out;
    for (index_t k = si; k <= sj; ++k) {
      if (k != sj) out.emplace_back(si, k);   // row predecessors
      if (k != si) out.emplace_back(k, sj);   // column predecessors
    }
    return out;
  }

 private:
  index_t m_;
};

}  // namespace cellnpdp
