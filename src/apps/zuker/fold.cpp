#include "apps/zuker/fold.hpp"

#include <algorithm>
#include <cassert>
#include <memory>
#include <stdexcept>

#include "common/thread_pool.hpp"
#include "simd/vec.hpp"

namespace cellnpdp::zuker {

namespace {
constexpr index_t kVecW = 8;
using V8 = Vec<Energy, kVecW>;
}  // namespace

Energy ZukerFolder::bif_rows(const Energy* row, const Energy* rowt, index_t x,
                             index_t y) {
  // min over k in [x, y-1].
  bif_relax_.fetch_add(y - x, std::memory_order_relaxed);
  Energy best = kInf;
  index_t k = x;
  if (opts_.simd && y - x >= 2 * kVecW) {
    V8 acc = V8::set1(kInf);
    for (; k + kVecW <= y; k += kVecW)
      acc = vmin(acc, V8::loadu(row + k) + V8::loadu(rowt + k));
    alignas(kBufferAlignment) Energy lanes[kVecW];
    acc.store(lanes);
    for (index_t l = 0; l < kVecW; ++l) best = std::min(best, lanes[l]);
  }
  for (; k < y; ++k) best = std::min(best, row[k] + rowt[k]);
  return best;
}

Energy ZukerFolder::v_two_loop_candidate(const std::vector<Base>& s, index_t i,
                                         index_t j, index_t p,
                                         index_t q) const {
  const int oc = pair_class(s[static_cast<std::size_t>(i)],
                            s[static_cast<std::size_t>(j)]);
  const int ic = pair_class(s[static_cast<std::size_t>(p)],
                            s[static_cast<std::size_t>(q)]);
  if (ic < 0) return kInf;
  const Energy inner = v_[static_cast<std::size_t>(p * stride_ + q)];
  return em_.two_loop(oc, ic, p - i - 1, j - q - 1) + inner;
}

FoldResult ZukerFolder::fold(const std::vector<Base>& seq) {
  n_ = static_cast<index_t>(seq.size());
  FoldResult out;
  if (n_ == 0) return out;
  if (n_ == 1) {
    out.structure.assign(1, '.');
    return out;
  }
  stride_ = (n_ + kVecW - 1) / kVecW * kVecW;
  const std::size_t cells = static_cast<std::size_t>(n_ * stride_);
  v_.assign(cells, kInf);
  wm_.assign(cells, kInf);
  w_.assign(cells, kInf);
  wmt_.assign(cells, kInf);
  wt_.assign(cells, kInf);
  bif_relax_ = 0;

  for (index_t i = 0; i < n_; ++i) W(i, i) = 0;  // WM(i,i), V(i,i) stay +inf

  // Cells on one anti-diagonal only depend on shorter spans, so they can
  // be computed concurrently (wavefront parallelism). Writes are disjoint
  // per cell, including the shifted-transpose mirrors.
  std::unique_ptr<ThreadPool> pool;
  if (opts_.threads > 1) pool = std::make_unique<ThreadPool>(opts_.threads);

  for (index_t span = 1; span < n_; ++span) {
    // One anti-diagonal is a coarse enough boundary for a forced deadline
    // check; the matrices stay consistent (all spans < this one complete).
    if (opts_.cancel.poll_deadline_now()) {
      out.cancelled = true;
      return out;
    }
    const index_t cells = n_ - span;
    if (pool != nullptr && cells >= 64) {
      pool->parallel_for(0, static_cast<std::size_t>(cells),
                         [&](std::size_t i) {
                           compute_cell(seq, static_cast<index_t>(i),
                                        static_cast<index_t>(i) + span);
                         });
    } else {
      for (index_t i = 0; i < cells; ++i) compute_cell(seq, i, i + span);
    }
  }

  out.mfe = W(0, n_ - 1);
  trace(seq, out);
  return out;
}

void ZukerFolder::trace(const std::vector<Base>& s, FoldResult& out) {
  out.pairs.clear();
  trace_w(s, 0, n_ - 1, out);
  std::sort(out.pairs.begin(), out.pairs.end());
  out.structure.assign(static_cast<std::size_t>(n_), '.');
  for (const auto& [i, j] : out.pairs) {
    out.structure[static_cast<std::size_t>(i)] = '(';
    out.structure[static_cast<std::size_t>(j)] = ')';
  }
}

void ZukerFolder::trace_w(const std::vector<Base>& s, index_t i, index_t j,
                          FoldResult& out) {
  while (i < j) {
    const Energy w = W(i, j);
    if (w == W(i + 1, j)) {
      ++i;
      continue;
    }
    if (w == W(i, j - 1)) {
      --j;
      continue;
    }
    if (w == V(i, j)) {
      trace_v(s, i, j, out);
      return;
    }
    for (index_t k = i; k < j; ++k) {
      if (w == W(i, k) + wt_[static_cast<std::size_t>(j * stride_ + k)]) {
        trace_w(s, i, k, out);
        trace_w(s, k + 1, j, out);
        return;
      }
    }
    throw std::logic_error("W traceback: no candidate matches");
  }
}

void ZukerFolder::trace_v(const std::vector<Base>& s, index_t i, index_t j,
                          FoldResult& out) {
  out.pairs.emplace_back(i, j);
  const Energy v = V(i, j);
  const index_t span = j - i;
  if (v == em_.hairpin(span - 1)) return;
  const index_t pmax = std::min(j - 2, i + 1 + em_.max_internal);
  for (index_t p = i + 1; p <= pmax; ++p) {
    const index_t s1 = p - i - 1;
    for (index_t q = j - 1; q > p; --q) {
      if (s1 + (j - 1 - q) > em_.max_internal) break;
      if (v == v_two_loop_candidate(s, i, j, p, q)) {
        trace_v(s, p, q, out);
        return;
      }
    }
  }
  // Multiloop: find the split.
  for (index_t k = i + 1; k < j - 1; ++k) {
    const Energy cand = em_.ml_close + em_.ml_branch + (WM(i + 1, k) +
                        wmt_[static_cast<std::size_t>((j - 1) * stride_ + k)]);
    if (v == cand) {
      trace_wm(s, i + 1, k, out);
      trace_wm(s, k + 1, j - 1, out);
      return;
    }
  }
  throw std::logic_error("V traceback: no candidate matches");
}

void ZukerFolder::trace_wm(const std::vector<Base>& s, index_t i, index_t j,
                           FoldResult& out) {
  while (true) {
    const Energy wm = WM(i, j);
    if (i < j && wm == WM(i + 1, j) + em_.ml_unpaired) {
      ++i;
      continue;
    }
    if (i < j && wm == WM(i, j - 1) + em_.ml_unpaired) {
      --j;
      continue;
    }
    if (wm == V(i, j) + em_.ml_branch) {
      trace_v(s, i, j, out);
      return;
    }
    for (index_t k = i; k < j; ++k) {
      if (wm == WM(i, k) + wmt_[static_cast<std::size_t>(j * stride_ + k)]) {
        trace_wm(s, i, k, out);
        trace_wm(s, k + 1, j, out);
        return;
      }
    }
    throw std::logic_error("WM traceback: no candidate matches");
  }
}

void ZukerFolder::compute_cell(const std::vector<Base>& seq, index_t i,
                               index_t j) {
  const index_t span = j - i;

  // ---- V(i,j): structures closed by pair (i,j) ------------------------
  Energy v = kInf;
  if (can_pair(seq[static_cast<std::size_t>(i)],
               seq[static_cast<std::size_t>(j)])) {
    v = em_.hairpin(span - 1);
    // Two-loops (stack / bulge / internal), bounded by max_internal.
    const index_t pmax = std::min(j - 2, i + 1 + em_.max_internal);
    for (index_t p = i + 1; p <= pmax; ++p) {
      const index_t s1 = p - i - 1;
      for (index_t q = j - 1; q > p; --q) {
        if (s1 + (j - 1 - q) > em_.max_internal) break;
        v = std::min(v, v_two_loop_candidate(seq, i, j, p, q));
      }
    }
    // Multiloop closed by (i,j): a + b + two WM components.
    if (span >= 3)
      v = std::min(v, em_.ml_close + em_.ml_branch + bif_wm(i + 1, j - 1));
  }
  V(i, j) = v;

  // ---- WM(i,j): multiloop component ------------------------------------
  Energy wm = std::min(WM(i + 1, j) + em_.ml_unpaired,
                       WM(i, j - 1) + em_.ml_unpaired);
  wm = std::min(wm, v + em_.ml_branch);
  wm = std::min(wm, bif_wm(i, j));
  WM(i, j) = wm;

  // ---- W(i,j): external region ------------------------------------------
  Energy w = std::min(W(i + 1, j), W(i, j - 1));
  w = std::min(w, v);
  w = std::min(w, bif_w(i, j));
  W(i, j) = w;

  // Shifted transposes for later bifurcations: X T(j,k) = X(k+1,j).
  if (i >= 1) {
    wmt_[static_cast<std::size_t>(j * stride_ + (i - 1))] = wm;
    wt_[static_cast<std::size_t>(j * stride_ + (i - 1))] = w;
  }
}

FoldResult fold_sequence(const std::string& seq, FoldOptions opts) {
  ZukerFolder folder(EnergyModel{}, opts);
  return folder.fold(parse_sequence(seq));
}

}  // namespace cellnpdp::zuker
