// The task triangle of the parallel procedure (§IV-B, Fig. 7).
//
// Tasks are the scheduling blocks of the upper block triangle of an m x m
// grid. Task (si,sj) depends on every block (si,k) and (k,sj) with
// si <= k <= sj. The paper keeps only the two *nearest* predecessors —
// the task on its left (si,sj-1) and the task below it (si+1,sj) —
// because the chains along the row and the column transitively cover the
// full set when every completion is seen in one order (DESIGN.md §5).
// Across asynchronous peers that shortcut fails, so every scheduler here
// — the host's, cellsim's PPE and cluster_sim's nodes — counts the full
// set through BlockTracker (taskgraph/block_scheduler.hpp), which
// releases the same tasks at the same completions in one address space.
// This class only numbers the tasks and lists a task's full set.
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

  /// The full dependence set of (si,sj): every (si,k) and (k,sj) other
  /// than the task itself — what BlockTracker counts. Used by tests to
  /// prove schedule validity.
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
