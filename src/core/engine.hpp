// The blocked NPDP engine: tier 1 of CellNPDP (§IV-A) on host memory.
//
// A memory block C = B(bi,bj) is relaxed in two stages (DESIGN.md §5):
//
//   stage 1  - contributions from all *middle* memory blocks
//              k in (bi,bj): C = C (+) (block(bi,k) (x) block(k,bj));
//              a plain semiring block product with no inner dependences,
//              one register-blocked kernel call per middle block pair.
//   stage 2  - contributions from k inside the diagonal blocks D1 =
//              B(bi,bi) and D2 = B(bj,bj), which read C itself. The rect
//              recursion of Chowdhury & Ramachandran splits C at tile
//              boundaries and finishes its quadrants in the order BL, TL,
//              BR, TR; each quadrant first takes one strided block product
//              with the strip whose operands just became final (the left
//              strip of D1 for TL, the bottom strip of D2 for BR, both for
//              TR). At a WxW leaf only k inside the leaf's own row tile and
//              column tile remain, and a scalar corner pass resolves them.
//
// A diagonal memory block runs tri: tri on each half, then rect on the
// square between them with D1 = D2 = the block itself; its leaves are the
// triangular tiles on the tile diagonal. The leaves take the kernel width
// at compile time and work on local copies of their tiles. Every mode runs
// this one path: a general k-term instance, whose functor cannot
// vectorise, takes a scalar block product of the same shape and folds the
// functor's term into every candidate, leaves included. Optimal splits are
// recovered afterwards from the solved table (core/traceback.hpp).
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
  /// Computing-block products: a block-product call over rows x depth x
  /// cols cells counts (rows/W)(depth/W)(cols/W).
  index_t kernel_calls = 0;
  index_t corner_relax = 0;    ///< scalar relaxations in corner passes
  index_t diag_relax = 0;      ///< scalar relaxations in diagonal tiles
  index_t cells_finalized = 0; ///< cells finished by a stage-2 leaf

  index_t scalar_relax() const { return corner_relax + diag_relax; }

  EngineStats& operator+=(const EngineStats& o) {
    kernel_calls += o.kernel_calls;
    corner_relax += o.corner_relax;
    diag_relax += o.diag_relax;
    cells_finalized += o.cells_finalized;
    return *this;
  }
};

namespace detail {

/// Stage 2's corner leaf on local copies of three WxW tiles: c, the tile
/// to resolve, whose first cell is global (gi0, gj0); a, the diagonal tile
/// of its row block; b, that of its column block. Every k outside c's own
/// row tile and column tile has been applied. Each cell folds the k of its
/// row tile (a (x) c) and then of its column tile (c (x) b), ascending:
/// fold(acc, x, y, gi, gk, gj) folds one candidate and finish(lr, lc, cur,
/// acc) returns the cell's final value. Rows go bottom-up and cells left
/// to right, so every value a cell reads is final and the one finished
/// last is folded last. The loops unroll by 4: fully up to W = 4, which
/// keeps the tiles in registers, and partly at W = 8 (simd256 float),
/// which bounds the code each instantiation adds.
template <int W, class T, class Fold, class Finish>
inline void corner_leaf(T (&c)[W][W], const T (&a)[W][W],
                        const T (&b)[W][W], index_t gi0, index_t gj0,
                        Fold&& fold, Finish&& finish) {
#pragma GCC unroll 4
  for (int lr = W - 1; lr >= 0; --lr)
#pragma GCC unroll 4
    for (int lc = 0; lc < W; ++lc) {
      T acc = c[lr][lc];
#pragma GCC unroll 4
      for (int lk = lr + 1; lk < W; ++lk)
        fold(acc, a[lr][lk], c[lk][lc], gi0 + lr, gi0 + lk, gj0 + lc);
#pragma GCC unroll 4
      for (int lk = 0; lk < lc; ++lk)
        fold(acc, c[lr][lk], b[lk][lc], gi0 + lr, gj0 + lk, gj0 + lc);
      c[lr][lc] = finish(lr, lc, c[lr][lc], acc);
    }
}

/// The triangular leaf: a tile on the tile diagonal of a diagonal block,
/// first cell global (g0, g0), self-contained. Cell (lr, lc), lr < lc,
/// folds k in (lr, lc) ascending, in the corner leaf's cell order.
template <int W, class T, class Fold, class Finish>
inline void diagonal_leaf(T (&c)[W][W], index_t g0, Fold&& fold,
                          Finish&& finish) {
#pragma GCC unroll 4
  for (int lr = W - 2; lr >= 0; --lr)
#pragma GCC unroll 4
    for (int lc = lr + 1; lc < W; ++lc) {
      T acc = c[lr][lc];
#pragma GCC unroll 4
      for (int lk = lr + 1; lk < lc; ++lk)
        fold(acc, c[lr][lk], c[lk][lc], g0 + lr, g0 + lk, g0 + lc);
      c[lr][lc] = finish(lr, lc, c[lr][lc], acc);
    }
}

}  // namespace detail

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
    // Stage 2 takes the width at compile time. cb_kernel gives 4-byte
    // cells width 4 or 8 and 8-byte cells width 2 or 4; only those two
    // are instantiated.
    constexpr int kOtherWidth = sizeof(T) == 4 ? 8 : 2;
    if (kern_.width == 4)
      inner_ = &BlockEngine::inner_pass<4>;
    else if (kern_.width == kOtherWidth)
      inner_ = &BlockEngine::inner_pass<kOtherWidth>;
    else
      throw std::invalid_argument("unsupported kernel width");
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
      (this->*inner_)(Cb, Cb, Cb, /*diag=*/true, row0, col0, st);
      return;
    }
    {
      CELLNPDP_TRACE_SPAN("middle", "middle", bi, bj);
      for (index_t mk = bi + 1; mk < bj; ++mk)
        block_product(Cb, mat_->block(bi, mk), mat_->block(mk, bj), bs_, bs_,
                      bs_, row0, mk * bs_, col0, st);
    }
    CELLNPDP_TRACE_SPAN("inner", "inner", bi, bj);
    (this->*inner_)(Cb, mat_->block(bi, bi), mat_->block(bj, bj),
                    /*diag=*/false, row0, col0, st);
  }

 private:
  /// Writes block (bi,bj)'s seed (see NpdpInstance): the semiring zero on
  /// padding and below-diagonal cells, init(i,i) on the diagonal, and off
  /// the diagonal init(i,j) with Fig. 1's k == i relaxation folded in —
  /// or, in general mode, the zero.
  void seed_block(index_t bi, index_t bj) {
    T* Cb = mat_->block(bi, bj);
    std::fill(Cb, Cb + bs_ * bs_, S::zero());
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

  /// C (+)= A (x) B over rows x depth x cols cells at row stride bs_: one
  /// block-product call. C's first cell is global (gi, gj); the product's
  /// first k is global gk.
  void block_product(T* C, const T* A, const T* B, index_t rows,
                     index_t depth, index_t cols, index_t gi, index_t gk,
                     index_t gj, EngineStats* st) const {
    if (st != nullptr) {
      const index_t W = kern_.width;
      st->kernel_calls += (rows / W) * (depth / W) * (cols / W);
    }
    if (ktg_)
      kterm_product(C, A, B, rows, depth, cols, gi, gk, gj);
    else if (ku_.empty())
      kern_.block(C, A, B, rows, depth, cols, bs_);
    else
      kern_.block_sep(C, A, B, rows, depth, cols, bs_, ku_.data() + gi,
                      kv_.data() + gk, kw_.data() + gj);
  }

  /// block_product for a general k-term instance: scalar, one functor
  /// call per relaxation, each cell's k ascending.
  void kterm_product(T* C, const T* A, const T* B, index_t rows,
                     index_t depth, index_t cols, index_t gi, index_t gk,
                     index_t gj) const {
    for (index_t r = 0; r < rows; ++r)
      for (index_t k = 0; k < depth; ++k)
        for (index_t c = 0; c < cols; ++c)
          kterm_fold(C[r * bs_ + c], A[r * bs_ + k], B[k * bs_ + c], gi + r,
                     gk + k, gj + c);
  }

  /// How a stage-2 leaf folds a candidate into its cell: with no term,
  /// the separable term or the general k-term.
  enum class Fold { Pure, Sep, KTerm };

  /// Stage 2's view of one memory block: C, its diagonal blocks D1 and D2
  /// (all three the same block on the diagonal), C's first global row and
  /// column, the stats sink and whether leaves emit trace spans.
  struct Inner {
    T* C;
    const T* D1;
    const T* D2;
    index_t row0, col0;
    EngineStats* st;
    bool traced;
  };

  /// Stage 2 (and the whole of a diagonal block). Leaf trace spans are
  /// emitted behind this one hoisted enabled() check, so the scalar hot
  /// loops stay span-free when tracing is off.
  template <int W>
  void inner_pass(T* Cb, const T* D1, const T* D2, bool diag, index_t row0,
                  index_t col0, EngineStats* st) const {
#ifndef CELLNPDP_NO_TRACING
    const bool traced = obs::Tracer::instance().enabled();
#else
    constexpr bool traced = false;
#endif
    const Inner s{Cb, D1, D2, row0, col0, st, traced};
    if (ktg_)
      recurse<W, Fold::KTerm>(s, diag);
    else if (ku_.empty())
      recurse<W, Fold::Pure>(s, diag);
    else
      recurse<W, Fold::Sep>(s, diag);
  }

  /// rect over a whole off-diagonal block, tri over a diagonal one.
  template <int W, Fold F>
  void recurse(const Inner& s, bool diag) const {
    if (diag)
      tri<W, F>(s, 0, tb_);
    else
      rect<W, F>(s, 0, tb_, 0, tb_);
  }

  /// Finishes C's triangle of tiles [t0,t1) of a diagonal block.
  template <int W, Fold F>
  void tri(const Inner& s, index_t t0, index_t t1) const {
    if (t1 - t0 == 1) {
      diagonal_tile<W, F>(s, t0);
      return;
    }
    const index_t tm = t0 + (t1 - t0) / 2;
    tri<W, F>(s, t0, tm);
    tri<W, F>(s, tm, t1);
    rect<W, F>(s, t0, tm, tm, t1);
  }

  /// Finishes C's tiles [r0,r1) x [c0,c1), to which every k outside D1's
  /// tiles [r0,r1) and D2's tiles [c0,c1) has been applied. Splits at tile
  /// boundaries with the first half rounded down, so a side one tile wide
  /// leaves its first half empty and only the other side splits.
  template <int W, Fold F>
  void rect(const Inner& s, index_t r0, index_t r1, index_t c0,
            index_t c1) const {
    if (r0 == r1 || c0 == c1) return;
    if (r1 - r0 == 1 && c1 - c0 == 1) {
      corner<W, F>(s, r0, c0);
      return;
    }
    const index_t rm = r0 + (r1 - r0) / 2;
    const index_t cm = c0 + (c1 - c0) / 2;
    const index_t left_k = s.row0 + rm * W;   // D1's tiles [rm, r1)
    const index_t bottom_k = s.col0 + c0 * W;  // D2's tiles [c0, cm)
    // BL: the parent's invariant already holds.
    rect<W, F>(s, rm, r1, c0, cm);
    // TL: the left strip, against BL.
    strip<W>(s, r0, rm, c0, cm, tile(s.D1, r0, rm), tile(s.C, rm, c0),
             r1 - rm, left_k);
    rect<W, F>(s, r0, rm, c0, cm);
    // BR: the bottom strip, against BL.
    strip<W>(s, rm, r1, cm, c1, tile(s.C, rm, c0), tile(s.D2, c0, cm),
             cm - c0, bottom_k);
    rect<W, F>(s, rm, r1, cm, c1);
    // TR: the left strip against BR, then the bottom strip against TL.
    strip<W>(s, r0, rm, cm, c1, tile(s.D1, r0, rm), tile(s.C, rm, cm),
             r1 - rm, left_k);
    strip<W>(s, r0, rm, cm, c1, tile(s.C, r0, c0), tile(s.D2, c0, cm),
             cm - c0, bottom_k);
    rect<W, F>(s, r0, rm, cm, c1);
  }

  /// C's tiles [r0,r1) x [c0,c1) (+)= A (x) B over a strip of kt k tiles
  /// from global k gk; A and B point at the strip's first tiles.
  template <int W>
  void strip(const Inner& s, index_t r0, index_t r1, index_t c0, index_t c1,
             const T* A, const T* B, index_t kt, index_t gk) const {
    if (r0 == r1 || c0 == c1 || kt == 0) return;
    block_product(tile(s.C, r0, c0), A, B, (r1 - r0) * W, kt * W,
                  (c1 - c0) * W, s.row0 + r0 * W, gk, s.col0 + c0 * W, s.st);
  }

  template <int W>
  void load_tile(T (&dst)[W][W], const T* src) const {
    for (int r = 0; r < W; ++r)
      for (int c = 0; c < W; ++c) dst[r][c] = src[r * bs_ + c];
  }
  template <int W>
  void store_tile(T* dst, const T (&src)[W][W]) const {
    for (int r = 0; r < W; ++r)
      for (int c = 0; c < W; ++c) dst[r * bs_ + c] = src[r][c];
  }

  /// Corner leaf of tile (rt, ct), on local copies of it and of the
  /// diagonal tiles of its row and column; the C tile never overlaps them,
  /// as rt < ct inside a diagonal block.
  template <int W, Fold F>
  void corner(const Inner& s, index_t rt, index_t ct) const {
    if (s.traced) {
      CELLNPDP_TRACE_SPAN("corner", "corner", rt, ct);
      corner_cells<W, F>(s, rt, ct);
    } else {
      corner_cells<W, F>(s, rt, ct);
    }
  }

  template <int W, Fold F>
  void corner_cells(const Inner& s, index_t rt, index_t ct) const {
    T c[W][W], a[W][W], b[W][W];
    T* Ct = tile(s.C, rt, ct);
    load_tile<W>(c, Ct);
    load_tile<W>(a, tile(s.D1, rt, rt));
    load_tile<W>(b, tile(s.D2, ct, ct));
    const index_t gi0 = s.row0 + rt * W;
    const index_t gj0 = s.col0 + ct * W;
    leaf_ops<F>(gi0, gj0, [&](auto&& fold, auto&& fin) {
      detail::corner_leaf<W>(c, a, b, gi0, gj0, fold, fin);
    });
    store_tile<W>(Ct, c);
    if (s.st != nullptr) {
      s.st->corner_relax += W * W * (W - 1);
      s.st->cells_finalized += W * W;
    }
  }

  /// Triangular tile t on the tile diagonal of a diagonal block: fully
  /// self-contained, resolved on a local copy.
  template <int W, Fold F>
  void diagonal_tile(const Inner& s, index_t t) const {
    if (s.traced) {
      CELLNPDP_TRACE_SPAN("diag", "diag", t, t);
      diagonal_cells<W, F>(s, t);
    } else {
      diagonal_cells<W, F>(s, t);
    }
  }

  template <int W, Fold F>
  void diagonal_cells(const Inner& s, index_t t) const {
    T c[W][W];
    T* Ct = tile(s.C, t, t);
    load_tile<W>(c, Ct);
    const index_t g0 = s.row0 + t * W;
    leaf_ops<F>(g0, g0, [&](auto&& fold, auto&& fin) {
      detail::diagonal_leaf<W>(c, g0, fold, fin);
    });
    store_tile<W>(Ct, c);
    if (s.st != nullptr) {
      s.st->diag_relax += W * (W - 1) * (W - 2) / 6;
      s.st->cells_finalized += W * (W - 1) / 2;
    }
  }

  /// Calls leaf(fold, finish) with the leaf operations of F for the tile
  /// whose first cell is global (gi0, gj0). A pure instance finishes a
  /// cell with its folded value, so its leaves call nothing and keep their
  /// tiles in registers.
  template <Fold F, class Leaf>
  void leaf_ops(index_t gi0, index_t gj0, Leaf&& leaf) const {
    const auto fold_one = [this](T& acc, T x, T y, index_t gi, index_t gk,
                                 index_t gj) {
      fold<F>(acc, x, y, gi, gk, gj);
    };
    if (!general_) {
      leaf(fold_one, [](int, int, T, T acc) { return acc; });
      return;
    }
    leaf(fold_one, [&](int lr, int lc, T cur, T acc) {
      return finalize_cell(gi0 + lr, gj0 + lc, cur, acc);
    });
  }

  /// Folds the candidate x (x) y of (gi, gk, gj) into a leaf cell's running
  /// value. Pure and Sep relax with S::plus, which has no branch.
  template <Fold F>
  void fold(T& acc, T x, T y, index_t gi, index_t gk, index_t gj) const {
    if constexpr (F == Fold::KTerm) {
      kterm_fold(acc, x, y, gi, gk, gj);
    } else {
      T cand = S::times(x, y);
      if constexpr (F == Fold::Sep)
        cand = S::times(cand, ku_[gi] * kv_[gk] * kw_[gj]);
      acc = S::plus(acc, cand);
    }
  }

  /// Folds (x (x) y) (x) kterm(gi, gk, gj) into acc. Padded indices are
  /// skipped before the functor is called: their operand is the semiring
  /// zero, and the functor may index arrays of length n. Like
  /// finalize_cell it stays out of line, so the unrolled leaves of the
  /// rarer modes stay small.
  [[gnu::noinline]] void kterm_fold(T& acc, T x, T y, index_t gi, index_t gk,
                                    index_t gj) const {
    const index_t n = inst_->n;
    if (gi >= n || gk >= n || gj >= n) return;
    acc = S::plus(acc, S::times(S::times(x, y), inst_->kterm(gi, gk, gj)));
  }

  /// The final value of general-mode cell (gi, gj), whose leaf candidates
  /// folded to acc from its earlier value cur.
  [[gnu::noinline]] T finalize_cell(index_t gi, index_t gj, T cur,
                                    T acc) const {
    const index_t n = inst_->n;
    if (gi >= n || gj >= n) return cur;  // padding stays the semiring zero
    const T init = inst_->init(gi, gj);
    const T w = inst_->weight ? inst_->weight(gi, gj) : S::one();
    return S::plus(init, S::times(w, acc));
  }

  BlockedTriangularMatrix<T>* mat_;
  const NpdpInstance<T>* inst_;
  index_t bs_;
  index_t tb_ = 0;
  CbKernel<T> kern_;
  bool general_;
  bool ktg_ = false;
  aligned_vector<T> ku_, kv_, kw_;  // padded copies; empty when no k-term
  void (BlockEngine::*inner_)(T*, const T*, const T*, bool, index_t, index_t,
                              EngineStats*) const = nullptr;
};

}  // namespace cellnpdp
