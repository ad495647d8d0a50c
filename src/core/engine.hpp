// The blocked NPDP engine: tier 1 of CellNPDP (§IV-A) on host memory.
//
// A memory block B(bi,bj) is relaxed in two stages (DESIGN.md §5):
//
//   stage 1  - contributions from all *middle* memory blocks
//              k in (bi,bj): C = C (+) (block(bi,k) (x) block(k,bj));
//              a plain semiring block product with no inner dependences,
//              one register-blocked kernel call per middle block pair.
//   stage 2  - computing blocks of C walked left-to-right / bottom-to-top;
//              each tile first folds in the triangular diagonal blocks
//              B(bi,bi), B(bj,bj) at tile granularity, then a scalar corner
//              pass resolves the tile's own inner dependences.
//
// Diagonal memory blocks run the same tile walk with D1 = D2 = the block
// itself and scalar triangular tiles on the tile diagonal.
#pragma once

#include <algorithm>
#include <cassert>
#include <cstdint>
#include <stdexcept>

#include "common/aligned.hpp"
#include "core/instance.hpp"
#include "layout/blocked.hpp"
#include "obs/trace.hpp"

namespace cellnpdp {

/// Work counters, filled when compute_block is given a sink. Each
/// scheduler worker counts into its own copy (taskgraph/block_scheduler.hpp)
/// and the copies are summed at join. Used by the utilization accounting
/// of the benches and to validate the simulator's closed-form work model
/// against the real engine.
struct EngineStats {
  /// Computing-block products; a block call counts (bs/W)^3.
  index_t kernel_calls = 0;
  index_t corner_relax = 0;    ///< scalar relaxations in corner passes
  index_t diag_relax = 0;      ///< scalar relaxations in diagonal tiles
  index_t cells_finalized = 0; ///< finalize_cell executions

  index_t scalar_relax() const { return corner_relax + diag_relax; }

  EngineStats& operator+=(const EngineStats& o) {
    kernel_calls += o.kernel_calls;
    corner_relax += o.corner_relax;
    diag_relax += o.diag_relax;
    cells_finalized += o.cells_finalized;
    return *this;
  }
};

/// The blocked engine, generic over a semiring S (see simd/semiring.hpp).
/// The default min-plus instantiation is bit-identical to the historical
/// hard-coded engine: every S::plus/times/improves call below expands to
/// the exact expression the min-plus code spelled out inline.
template <class T, class S = MinPlusSemiring<T>>
class BlockEngine {
 public:
  BlockEngine(BlockedTriangularMatrix<T>& mat, const NpdpInstance<T>& inst,
              const NpdpOptions& opts)
      : mat_(&mat),
        inst_(&inst),
        bs_(opts.block_side),
        kern_(cb_kernel<T, S>(opts.kernel)),
        general_(inst.general_mode()) {
    if (bs_ % kern_.width != 0)
      throw std::invalid_argument(
          "block_side must be a multiple of the kernel width");
    if (mat.block_side() != bs_ || mat.size() != inst.n)
      throw std::invalid_argument("matrix does not match instance/options");
    if (inst.semiring != S::id)
      throw std::invalid_argument(
          "instance semiring does not match the engine instantiation");
    if (!(mat.pad() == S::zero()))
      throw std::invalid_argument(
          "matrix padding is not the semiring's zero (construct or reset "
          "the matrix with semiring_zero<T>(inst.semiring))");
    tb_ = bs_ / kern_.width;
    ktg_ = static_cast<bool>(inst.kterm);
    if (ktg_ && inst.ku != nullptr)
      throw std::invalid_argument(
          "separable and general k-terms are mutually exclusive");
    if (inst.ku != nullptr) {
      // Pad the separable-term arrays to whole blocks so tile kernels can
      // read factor windows for padded k without going out of bounds.
      const std::size_t padded =
          static_cast<std::size_t>(mat.blocks_per_side() * bs_);
      ku_.assign(padded, T(0));
      kv_.assign(padded, T(0));
      kw_.assign(padded, T(0));
      for (index_t i = 0; i < inst.n; ++i) {
        ku_[static_cast<std::size_t>(i)] = inst.ku[i];
        kv_[static_cast<std::size_t>(i)] = inst.kv[i];
        kw_[static_cast<std::size_t>(i)] = inst.kw[i];
      }
    }
  }

  index_t blocks_per_side() const { return mat_->blocks_per_side(); }
  index_t block_side() const { return bs_; }
  index_t tiles_per_side() const { return tb_; }
  index_t kernel_width() const { return kern_.width; }

  /// Attaches an argmin table (same geometry as the value matrix). Each
  /// cell ends up holding, as a T, the k index whose relaxation produced
  /// the final value, or -1 if the seed/init value survived. Must be
  /// attached before the first compute_block(). Min-plus only: argmin
  /// traceback over other semirings has no SIMD kernel (and no meaning
  /// for counting).
  void set_argmin(BlockedTriangularMatrix<T>* argm) {
    if constexpr (S::id != SemiringId::MinPlus)
      throw std::invalid_argument("argmin tracking requires min-plus");
    if (argm->block_side() != bs_ || argm->size() != inst_->n)
      throw std::invalid_argument("argmin matrix geometry mismatch");
    argm_ = argm;
  }

  /// Seeds memory block (bi,bj), then relaxes it. Every block it depends
  /// on — all (bi,k) and (k,bj) with bi <= k <= bj other than itself —
  /// must be final; the block's own prior contents are never read, so the
  /// matrix only needs the semiring zero as its pad(). Every run starts
  /// from a fresh seed, which makes re-running a block (after a throw or
  /// a failed checksum) correct by construction: general-mode
  /// finalize_cell is an overwrite, not a min-fold, and re-relaxing could
  /// never heal a corrupted value below the true minimum. Counts work into
  /// `st` when given (the caller's own copy: concurrent workers must not
  /// share one).
  void compute_block(index_t bi, index_t bj, EngineStats* st = nullptr) {
    seed_block(bi, bj);
    T* Cb = mat_->block(bi, bj);
    const index_t row0 = bi * bs_;
    const index_t col0 = bj * bs_;
    if (bi == bj) {
      CELLNPDP_TRACE_SPAN("inner", "inner.diag", bi, bj);
      inner_pass(Cb, Cb, Cb, /*diag=*/true, row0, col0, st);
      return;
    }
    {
      CELLNPDP_TRACE_SPAN("middle", "middle", bi, bj);
      for (index_t mk = bi + 1; mk < bj; ++mk)
        middle_pass(Cb, mat_->block(bi, mk), mat_->block(mk, bj),
                    row0, mk * bs_, col0, st);
    }
    CELLNPDP_TRACE_SPAN("inner", "inner", bi, bj);
    inner_pass(Cb, mat_->block(bi, bi), mat_->block(bj, bj),
               /*diag=*/false, row0, col0, st);
  }

 private:
  /// Writes block (bi,bj)'s seed (see NpdpInstance): the semiring zero on
  /// padding and below-diagonal cells, init(i,i) on the diagonal, and off
  /// the diagonal init(i,j) with Fig. 1's k == i relaxation folded in —
  /// or, in general mode, the zero. Resets its argmin block, when
  /// attached, to -1.
  void seed_block(index_t bi, index_t bj) {
    T* Cb = mat_->block(bi, bj);
    const index_t cells = bs_ * bs_;
    std::fill(Cb, Cb + cells, S::zero());
    if (argm_ != nullptr) {
      T* Kb = argm_->data() + (Cb - mat_->data());
      std::fill(Kb, Kb + cells, T(-1));
    }
    const bool diag = bi == bj;
    if (general_ && !diag) return;
    const index_t n = inst_->n;
    const index_t row0 = bi * bs_;
    const index_t col0 = bj * bs_;
    const index_t rows = std::min(bs_, n - row0);
    const index_t cols = std::min(bs_, n - col0);
    for (index_t r = 0; r < rows; ++r) {
      const index_t gi = row0 + r;
      const T dii = inst_->init(gi, gi);
      T* row = Cb + r * bs_;
      if (diag) row[r] = dii;
      if (general_) continue;
      for (index_t c = diag ? r + 1 : 0; c < cols; ++c) {
        const T init = inst_->init(gi, col0 + c);
        const T self = S::times(init, dii);  // Fig. 1's k == i relaxation
        row[c] = S::plus(init, self);
      }
    }
  }

  const T* tile(const T* base, index_t rt, index_t ct) const {
    return base + rt * kern_.width * bs_ + ct * kern_.width;
  }
  T* tile(T* base, index_t rt, index_t ct) const {
    return base + rt * kern_.width * bs_ + ct * kern_.width;
  }

  void run_kernel(T* C, const T* A, const T* B, index_t gi0, index_t gk0,
                  index_t gj0, EngineStats* st) const {
    if (st != nullptr) ++st->kernel_calls;
    if (ktg_) {
      generic_tile(C, A, B, gi0, gk0, gj0);
      return;
    }
    if (argm_ != nullptr) {
      // C and KC share the block offset: recover KC from the matrices.
      T* KC = argm_->data() + (C - mat_->data());
      if (!ku_.empty()) {
        minplus_tile_scalar_arg(C, KC, bs_, A, bs_, B, bs_, kern_.width, gk0,
                                ku_.data() + gi0, kv_.data() + gk0,
                                kw_.data() + gj0);
      } else {
        kern_.arg(C, KC, bs_, A, bs_, B, bs_, gk0);
      }
      return;
    }
    if (!ku_.empty()) {
      kern_.sep(C, bs_, A, bs_, B, bs_, ku_.data() + gi0, kv_.data() + gk0,
                kw_.data() + gj0);
    } else {
      kern_.pure(C, bs_, A, bs_, B, bs_);
    }
  }

  /// Scalar tile relaxation with the general per-(i,k,j) term; handles
  /// argmin tracking. Functor calls are skipped for padded indices (the
  /// operand there is the semiring zero, which annihilates the candidate).
  void generic_tile(T* C, const T* A, const T* B, index_t gi0, index_t gk0,
                    index_t gj0) const {
    const index_t W = kern_.width;
    const index_t n = inst_->n;
    T* KC = argm_ != nullptr ? argm_->data() + (C - mat_->data()) : nullptr;
    for (index_t r = 0; r < W; ++r) {
      const index_t gi = gi0 + r;
      for (index_t k = 0; k < W; ++k) {
        const index_t gk = gk0 + k;
        const T a = A[r * bs_ + k];
        for (index_t c = 0; c < W; ++c) {
          const index_t gj = gj0 + c;
          if (gi >= n || gk >= n || gj >= n) continue;
          const T cand = S::times(S::times(a, B[k * bs_ + c]),
                                  inst_->kterm(gi, gk, gj));
          T& dst = C[r * bs_ + c];
          if constexpr (S::idempotent) {
            if (S::improves(cand, dst)) {
              dst = cand;
              if (KC != nullptr) KC[r * bs_ + c] = T(gk);
            }
          } else {
            dst = S::plus(dst, cand);
          }
        }
      }
    }
  }

  /// Stage 1: C = C (+) (A (x) B) for one middle block pair, a block
  /// product with no ordering constraints. Pure and separable instances
  /// make one block-product call; argmin and general k-term instances walk
  /// the tile triples, which need per-tile k bases or a functor call.
  void middle_pass(T* Cb, const T* Ab, const T* Bb, index_t row0, index_t k0,
                   index_t col0, EngineStats* st) const {
    if (!ktg_ && argm_ == nullptr) {
      if (st != nullptr) st->kernel_calls += tb_ * tb_ * tb_;
      if (ku_.empty())
        kern_.block(Cb, Ab, Bb, bs_);
      else
        kern_.block_sep(Cb, Ab, Bb, bs_, ku_.data() + row0, kv_.data() + k0,
                        kw_.data() + col0);
      return;
    }
    const index_t W = kern_.width;
    for (index_t rt = 0; rt < tb_; ++rt)
      for (index_t kt = 0; kt < tb_; ++kt)
        for (index_t ct = 0; ct < tb_; ++ct)
          run_kernel(tile(Cb, rt, ct), tile(Ab, rt, kt), tile(Bb, kt, ct),
                     row0 + rt * W, k0 + kt * W, col0 + ct * W, st);
  }

  /// Stage 2 (and the whole of a diagonal block): ordered tile walk.
  /// Per-tile trace spans are emitted from here (behind one hoisted
  /// enabled() check) rather than inside corner()/diagonal_tile(), so the
  /// scalar hot loops stay span-free when tracing is off.
  void inner_pass(T* Cb, const T* D1, const T* D2, bool diag, index_t row0,
                  index_t col0, EngineStats* st) const {
#ifndef CELLNPDP_NO_TRACING
    const bool traced = obs::Tracer::instance().enabled();
#else
    constexpr bool traced = false;
#endif
    const index_t W = kern_.width;
    for (index_t ct = 0; ct < tb_; ++ct) {
      for (index_t rt = diag ? ct : tb_ - 1; rt >= 0; --rt) {
        if (diag && rt == ct) {
          if (traced) {
            CELLNPDP_TRACE_SPAN("diag", "diag", rt, rt);
            diagonal_tile(Cb, rt, row0, col0, st);
          } else {
            diagonal_tile(Cb, rt, row0, col0, st);
          }
          continue;
        }
        // (a) k in the block-row range right of tile rt, paired with C
        // tiles below this one in tile-column ct. For a diagonal block the
        // range is clipped at ct: those are exactly its middle tiles.
        const index_t a_end = diag ? ct : tb_;
        for (index_t kt = rt + 1; kt < a_end; ++kt)
          run_kernel(tile(Cb, rt, ct), tile(D1, rt, kt), tile(Cb, kt, ct),
                     row0 + rt * W, row0 + kt * W, col0 + ct * W, st);
        // (b) k in the block-column range left of tile ct, paired with C
        // tiles left of this one in tile-row rt. Empty for diagonal blocks
        // (already covered by (a)).
        if (!diag)
          for (index_t kt = 0; kt < ct; ++kt)
            run_kernel(tile(Cb, rt, ct), tile(Cb, rt, kt), tile(D2, kt, ct),
                       row0 + rt * W, col0 + kt * W, col0 + ct * W, st);
        if (traced) {
          CELLNPDP_TRACE_SPAN("corner", "corner", rt, ct);
          corner(Cb, tile(D1, rt, rt), tile(D2, ct, ct), rt, ct, row0, col0,
                 st);
        } else {
          corner(Cb, tile(D1, rt, rt), tile(D2, ct, ct), rt, ct, row0, col0,
                 st);
        }
      }
    }
  }

  /// Scalar corner pass: folds in the same-tile parts of the diagonal
  /// blocks and the tile's own inner dependences, then finalises each cell.
  /// Cells are walked column-ascending / row-descending so every value read
  /// is already final.
  void corner(T* Cb, const T* A1, const T* B2, index_t rt, index_t ct,
              index_t row0, index_t col0, EngineStats* st) const {
    const index_t W = kern_.width;
    const index_t n = inst_->n;
    const bool kt_on = !ku_.empty();
    for (index_t lc = 0; lc < W; ++lc) {
      const index_t c = ct * W + lc;
      const index_t gj = col0 + c;
      for (index_t lr = W - 1; lr >= 0; --lr) {
        const index_t r = rt * W + lr;
        const index_t gi = row0 + r;
        T acc = Cb[r * bs_ + c];
        T karg = T(-2);  // sentinel: unchanged
        for (index_t lk = lr + 1; lk < W; ++lk) {
          const index_t gk = row0 + rt * W + lk;
          T cand = S::times(A1[lr * bs_ + lk], Cb[(rt * W + lk) * bs_ + c]);
          if (kt_on) cand = S::times(cand, ku_[gi] * kv_[gk] * kw_[gj]);
          if (ktg_) {
            if (gi >= n || gk >= n || gj >= n) continue;
            cand = S::times(cand, inst_->kterm(gi, gk, gj));
          }
          relax(acc, karg, cand, gk);
        }
        for (index_t lk = 0; lk < lc; ++lk) {
          const index_t gk = col0 + ct * W + lk;
          T cand = S::times(Cb[r * bs_ + ct * W + lk], B2[lk * bs_ + lc]);
          if (kt_on) cand = S::times(cand, ku_[gi] * kv_[gk] * kw_[gj]);
          if (ktg_) {
            if (gi >= n || gk >= n || gj >= n) continue;
            cand = S::times(cand, inst_->kterm(gi, gk, gj));
          }
          relax(acc, karg, cand, gk);
        }
        if (st != nullptr) st->corner_relax += (W - 1 - lr) + lc;
        finalize_cell(Cb, r, c, gi, gj, n, acc, st, karg);
      }
    }
  }

  /// A triangular tile on the diagonal of a diagonal block: fully
  /// self-contained, resolved with the original scalar recurrence.
  void diagonal_tile(T* Cb, index_t t, index_t row0, index_t col0,
                     EngineStats* st) const {
    const index_t W = kern_.width;
    const index_t n = inst_->n;
    const bool kt_on = !ku_.empty();
    for (index_t lc = 1; lc < W; ++lc) {
      const index_t c = t * W + lc;
      const index_t gj = col0 + c;
      for (index_t lr = lc - 1; lr >= 0; --lr) {
        const index_t r = t * W + lr;
        const index_t gi = row0 + r;
        T acc = Cb[r * bs_ + c];
        T karg = T(-2);
        for (index_t lk = lr + 1; lk < lc; ++lk) {
          const index_t gk = row0 + t * W + lk;
          T cand =
              S::times(Cb[r * bs_ + t * W + lk], Cb[(t * W + lk) * bs_ + c]);
          if (kt_on) cand = S::times(cand, ku_[gi] * kv_[gk] * kw_[gj]);
          if (ktg_) {
            if (gi >= n || gk >= n || gj >= n) continue;
            cand = S::times(cand, inst_->kterm(gi, gk, gj));
          }
          relax(acc, karg, cand, gk);
        }
        if (st != nullptr) st->diag_relax += lc - 1 - lr;
        finalize_cell(Cb, r, c, gi, gj, n, acc, st, karg);
      }
    }
  }

  /// Folds one candidate into the running cell value. Idempotent
  /// semirings relax with a strict-improvement compare (argmin tracking
  /// keeps the earliest winning k on ties, exactly as before); counting
  /// accumulates every candidate.
  void relax(T& acc, T& karg, T cand, index_t gk) const {
    if constexpr (S::idempotent) {
      if (S::improves(cand, acc)) {
        acc = cand;
        karg = T(gk);
      }
    } else {
      (void)karg;
      acc = S::plus(acc, cand);
    }
  }

  /// karg: the corner pass's improvement (global k), or -2 when the corner
  /// pass did not improve on the stage-kernel value.
  void finalize_cell(T* Cb, index_t r, index_t c, index_t gi, index_t gj,
                     index_t n, T acc, EngineStats* st,
                     T karg = T(-2)) const {
    if (st != nullptr) ++st->cells_finalized;
    T* arg_cell = nullptr;
    if (argm_ != nullptr) {
      arg_cell = argm_->data() + (Cb - mat_->data()) + r * bs_ + c;
      if (karg != T(-2)) *arg_cell = karg;
    }
    if (!general_) {
      Cb[r * bs_ + c] = acc;
      return;
    }
    if (gi >= n || gj >= n) return;  // padding stays the semiring zero
    const T init = inst_->init(gi, gj);
    const T w = inst_->weight ? inst_->weight(gi, gj) : S::one();
    const T relaxed = S::times(w, acc);
    if constexpr (S::idempotent) {
      if (S::improves(relaxed, init)) {
        Cb[r * bs_ + c] = relaxed;
      } else {
        Cb[r * bs_ + c] = init;
        if (arg_cell != nullptr) *arg_cell = T(-1);  // the init survived
      }
    } else {
      Cb[r * bs_ + c] = S::plus(init, relaxed);
    }
  }

  BlockedTriangularMatrix<T>* mat_;
  const NpdpInstance<T>* inst_;
  index_t bs_;
  index_t tb_ = 0;
  CbKernel<T> kern_;
  bool general_;
  bool ktg_ = false;
  BlockedTriangularMatrix<T>* argm_ = nullptr;
  aligned_vector<T> ku_, kv_, kw_;  // padded copies; empty when no k-term
};

}  // namespace cellnpdp
