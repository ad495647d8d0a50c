// Zuker minimum-free-energy folding (paper §I, §II-A: the NPDP inside the
// Zuker algorithm).
//
// Matrices (all over 0 <= i <= j < n):
//   V(i,j)  - MFE of a structure closed by pair (i,j);
//   WM(i,j) - MFE of a non-empty multiloop component (>= 1 branch);
//   W(i,j)  - MFE of the external region [i,j]  (W(0,n-1) is the answer).
//
// The O(n^3) bifurcation terms
//   min_k WM(i,k) + WM(k+1,j)   and   min_k W(i,k) + W(k+1,j)
// are the nonserial polyadic DP the paper targets. They are evaluated with
// the library's SIMD primitives: the folder maintains shifted transposes
// WMT(j,k) = WM(k+1,j), WT(j,k) = W(k+1,j), which turn every bifurcation
// into two contiguous rows — an elementwise add + min reduction, the exact
// data-layout trick of §III applied to Zuker.
#pragma once

#include <string>
#include <utility>
#include <vector>

#include <atomic>
#include <cstddef>

#include "apps/zuker/energy_model.hpp"
#include "common/aligned.hpp"
#include "common/cancel.hpp"

namespace cellnpdp::zuker {

struct FoldOptions {
  bool simd = true;        ///< vectorised bifurcations (false: scalar ablation)
  std::size_t threads = 1; ///< cells of one anti-diagonal computed in
                           ///< parallel (they are mutually independent)
  CancelToken cancel{};    ///< checked once per anti-diagonal; a tripped
                           ///< token abandons the fold (result.cancelled)
};

struct FoldResult {
  Energy mfe = 0;
  std::string structure;  ///< dot-bracket
  std::vector<std::pair<index_t, index_t>> pairs;
  bool cancelled = false; ///< fold abandoned; other fields are meaningless
};

class ZukerFolder {
 public:
  explicit ZukerFolder(EnergyModel em = {}, FoldOptions opts = {})
      : em_(std::move(em)), opts_(opts) {}

  FoldResult fold(const std::vector<Base>& seq);

  const EnergyModel& model() const { return em_; }

  /// Scalar relaxations performed inside bifurcation minima (the NPDP
  /// work); used by benches for rate reporting.
  index_t bifurcation_relaxations() const {
    return bif_relax_.load(std::memory_order_relaxed);
  }

 private:
  Energy& V(index_t i, index_t j) { return v_[idx(i, j)]; }
  Energy& WM(index_t i, index_t j) { return wm_[idx(i, j)]; }
  Energy& W(index_t i, index_t j) { return w_[idx(i, j)]; }
  std::size_t idx(index_t i, index_t j) const {
    return static_cast<std::size_t>(i * stride_ + j);
  }

  /// min over k in [x, y-1] of row[k] + rowt[k] (both contiguous).
  Energy bif_rows(const Energy* row, const Energy* rowt, index_t x,
                  index_t y);
  Energy bif_wm(index_t x, index_t y) {
    return bif_rows(wm_.data() + x * stride_, wmt_.data() + y * stride_, x, y);
  }
  Energy bif_w(index_t x, index_t y) {
    return bif_rows(w_.data() + x * stride_, wt_.data() + y * stride_, x, y);
  }

  /// Candidates of V(i,j) other than the hairpin; used by fold and the
  /// traceback (identical arithmetic so equality is exact).
  Energy v_two_loop_candidate(const std::vector<Base>& s, index_t i,
                              index_t j, index_t p, index_t q) const;

  void trace(const std::vector<Base>& s, FoldResult& out);
  void trace_w(const std::vector<Base>& s, index_t i, index_t j,
               FoldResult& out);
  void trace_v(const std::vector<Base>& s, index_t i, index_t j,
               FoldResult& out);
  void trace_wm(const std::vector<Base>& s, index_t i, index_t j,
                FoldResult& out);

  void compute_cell(const std::vector<Base>& seq, index_t i, index_t j);

  EnergyModel em_;
  FoldOptions opts_;
  index_t n_ = 0;
  index_t stride_ = 0;
  aligned_vector<Energy> v_, wm_, w_, wmt_, wt_;
  std::atomic<index_t> bif_relax_{0};
};

/// Convenience: fold a string sequence with default options.
FoldResult fold_sequence(const std::string& seq, FoldOptions opts = {});

}  // namespace cellnpdp::zuker
