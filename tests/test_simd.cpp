// SIMD wrapper and computing-block kernel tests. Every SIMD path must be
// bit-identical to the deliberately scalar reference path.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <string>
#include <type_traits>
#include <vector>

#include "common/aligned.hpp"
#include "common/rng.hpp"
#include "simd/dispatch.hpp"

namespace cellnpdp {
namespace {

template <class T, int W>
void vec_roundtrip_case() {
  alignas(kBufferAlignment) T in[W], out[W];
  for (int i = 0; i < W; ++i) in[i] = T(i) * T(1.5) + T(1);
  auto v = Vec<T, W>::load(in);
  v.store(out);
  for (int i = 0; i < W; ++i) EXPECT_EQ(out[i], in[i]);

  auto s = Vec<T, W>::set1(T(7));
  s.store(out);
  for (int i = 0; i < W; ++i) EXPECT_EQ(out[i], T(7));
}

TEST(Vec, LoadStoreSet1AllWidths) {
  vec_roundtrip_case<float, 4>();
  vec_roundtrip_case<float, 8>();
  vec_roundtrip_case<double, 2>();
  vec_roundtrip_case<double, 4>();
  vec_roundtrip_case<float, 3>();  // generic fallback width
}

template <class T, int W>
void vec_arith_case() {
  alignas(kBufferAlignment) T a[W], b[W], out[W];
  SplitMix64 rng(99);
  for (int i = 0; i < W; ++i) {
    a[i] = T(rng.next_in(-50, 50));
    b[i] = T(rng.next_in(-50, 50));
  }
  auto va = Vec<T, W>::load(a), vb = Vec<T, W>::load(b);
  (va + vb).store(out);
  for (int i = 0; i < W; ++i) EXPECT_EQ(out[i], a[i] + b[i]);
  (va * vb).store(out);
  for (int i = 0; i < W; ++i) EXPECT_EQ(out[i], a[i] * b[i]);
  vmin(va, vb).store(out);
  for (int i = 0; i < W; ++i) EXPECT_EQ(out[i], std::min(a[i], b[i]));
  vmax(va, vb).store(out);
  for (int i = 0; i < W; ++i) EXPECT_EQ(out[i], std::max(a[i], b[i]));
}

TEST(Vec, AddMulMinMaxAllWidths) {
  vec_arith_case<float, 4>();
  vec_arith_case<float, 8>();
  vec_arith_case<double, 2>();
  vec_arith_case<double, 4>();
  vec_arith_case<double, 5>();  // generic fallback width
}

template <class T, int W, int L>
void splat_lane_case() {
  alignas(kBufferAlignment) T in[W], out[W];
  for (int i = 0; i < W; ++i) in[i] = T(i + 1);
  auto v = Vec<T, W>::template splat<L>(Vec<T, W>::load(in));
  v.store(out);
  for (int i = 0; i < W; ++i) EXPECT_EQ(out[i], T(L + 1)) << "lane " << L;
}

TEST(Vec, SplatEveryLane) {
  splat_lane_case<float, 4, 0>();
  splat_lane_case<float, 4, 1>();
  splat_lane_case<float, 4, 2>();
  splat_lane_case<float, 4, 3>();
  splat_lane_case<float, 8, 0>();
  splat_lane_case<float, 8, 3>();
  splat_lane_case<float, 8, 4>();
  splat_lane_case<float, 8, 7>();
  splat_lane_case<double, 2, 0>();
  splat_lane_case<double, 2, 1>();
  splat_lane_case<double, 4, 0>();
  splat_lane_case<double, 4, 1>();
  splat_lane_case<double, 4, 2>();
  splat_lane_case<double, 4, 3>();
}

// --- computing-block kernels -------------------------------------------

template <class T>
aligned_vector<T> random_tile(index_t side, index_t stride, std::uint64_t seed,
                              double inf_fraction = 0.0) {
  aligned_vector<T> buf(static_cast<std::size_t>(side * stride));
  SplitMix64 rng(seed);
  for (auto& x : buf) {
    x = rng.next_unit() < inf_fraction ? minplus_identity<T>()
                                       : T(rng.next_in(0, 100));
  }
  return buf;
}

template <class T, int W>
void kernel_matches_scalar_case(std::uint64_t seed, double inf_fraction) {
  const index_t stride = 2 * W + 8;  // exercise non-trivial row strides
  auto c0 = random_tile<T>(W, stride, seed);
  auto a = random_tile<T>(W, stride, seed + 1, inf_fraction);
  auto b = random_tile<T>(W, stride, seed + 2, inf_fraction);
  auto c1 = c0;

  minplus_cb<T, W>(c0.data(), stride, a.data(), stride, b.data(), stride);
  minplus_tile_scalar<T>(c1.data(), stride, a.data(), stride, b.data(), stride,
                         W);
  for (index_t r = 0; r < W; ++r)
    for (index_t col = 0; col < W; ++col)
      EXPECT_EQ(c0[r * stride + col], c1[r * stride + col])
          << "W=" << W << " r=" << r << " c=" << col;
}

TEST(Kernels, MinPlusMatchesScalarAllWidths) {
  for (std::uint64_t s = 0; s < 8; ++s) {
    kernel_matches_scalar_case<float, 4>(s, 0.0);
    kernel_matches_scalar_case<float, 8>(s, 0.0);
    kernel_matches_scalar_case<double, 2>(s, 0.0);
    kernel_matches_scalar_case<double, 4>(s, 0.0);
  }
}

TEST(Kernels, MinPlusHandlesIdentityPadding) {
  // Padded tiles mix +inf into A and B; the kernel must treat them as
  // no-ops exactly like the scalar path.
  for (std::uint64_t s = 0; s < 8; ++s) {
    kernel_matches_scalar_case<float, 4>(s + 100, 0.3);
    kernel_matches_scalar_case<float, 8>(s + 100, 0.3);
    kernel_matches_scalar_case<double, 2>(s + 100, 0.3);
    kernel_matches_scalar_case<double, 4>(s + 100, 0.3);
  }
}

TEST(Kernels, AllIdentityInputsLeaveCUntouched) {
  constexpr int W = 4;
  const index_t stride = 16;
  auto c0 = random_tile<float>(W, stride, 5);
  auto a = random_tile<float>(W, stride, 6, 1.0);  // all +inf
  auto b = random_tile<float>(W, stride, 7, 1.0);
  auto expect = c0;
  minplus_cb<float, W>(c0.data(), stride, a.data(), stride, b.data(), stride);
  EXPECT_EQ(c0, expect);
}

template <class T, int W>
void sep_kernel_case(std::uint64_t seed) {
  const index_t stride = 3 * W;
  auto c0 = random_tile<T>(W, stride, seed);
  auto a = random_tile<T>(W, stride, seed + 1);
  auto b = random_tile<T>(W, stride, seed + 2);
  auto c1 = c0;
  // Integer-valued factors keep products exact at any association, but the
  // kernels are also required to associate (u*v)*w identically.
  alignas(kBufferAlignment) T u[W], v[W], w[W];
  SplitMix64 rng(seed + 3);
  for (int i = 0; i < W; ++i) {
    u[i] = T(double(rng.next_below(10)));
    v[i] = T(double(rng.next_below(10)));
    w[i] = T(double(rng.next_below(10)));
  }
  minplus_cb_sep<T, W>(c0.data(), stride, a.data(), stride, b.data(), stride,
                       u, v, w);
  minplus_tile_scalar_sep<T>(c1.data(), stride, a.data(), stride, b.data(),
                             stride, W, u, v, w);
  for (index_t r = 0; r < W; ++r)
    for (index_t col = 0; col < W; ++col)
      EXPECT_EQ(c0[r * stride + col], c1[r * stride + col]);
}

TEST(Kernels, SeparableTermMatchesScalarAllWidths) {
  for (std::uint64_t s = 0; s < 8; ++s) {
    sep_kernel_case<float, 4>(s);
    sep_kernel_case<float, 8>(s);
    sep_kernel_case<double, 2>(s);
    sep_kernel_case<double, 4>(s);
  }
}

// --- semiring-generic kernels ------------------------------------------

/// Tile filled with values drawn from the semiring's natural domain;
/// `zero_fraction` mixes in the semiring zero (the padding value the
/// blocked layout uses) so annihilator handling gets exercised too.
template <class S>
aligned_vector<typename S::value_type> random_semiring_tile(
    index_t side, index_t stride, std::uint64_t seed, double zero_fraction) {
  using T = typename S::value_type;
  aligned_vector<T> buf(static_cast<std::size_t>(side * stride));
  SplitMix64 rng(seed);
  for (auto& x : buf) {
    if (rng.next_unit() < zero_fraction) {
      x = S::zero();
    } else if constexpr (S::id == SemiringId::Counting) {
      x = T(rng.next_below(4));  // small integers: exact in float or double
    } else if constexpr (S::id == SemiringId::ViterbiLog) {
      x = T(-double(rng.next_below(50)));  // log-probabilities are <= 0
    } else {
      x = T(rng.next_in(-50, 50));
    }
  }
  return buf;
}

template <class S, int W>
void semiring_kernel_case(std::uint64_t seed, double zero_fraction) {
  using T = typename S::value_type;
  const index_t stride = 2 * W + 8;
  auto c0 = random_semiring_tile<S>(W, stride, seed, 0.0);
  auto a = random_semiring_tile<S>(W, stride, seed + 1, zero_fraction);
  auto b = random_semiring_tile<S>(W, stride, seed + 2, zero_fraction);
  auto c1 = c0;

  semiring_cb<S, T, W>(c0.data(), stride, a.data(), stride, b.data(), stride);
  semiring_tile_scalar<S, T>(c1.data(), stride, a.data(), stride, b.data(),
                             stride, W, W, W);
  for (index_t r = 0; r < W; ++r)
    for (index_t col = 0; col < W; ++col)
      EXPECT_EQ(c0[r * stride + col], c1[r * stride + col])
          << semiring_name(S::id) << " W=" << W << " r=" << r << " c=" << col;
}

template <class S>
void semiring_kernel_all_widths(std::uint64_t seed, double zero_fraction) {
  using T = typename S::value_type;
  if constexpr (std::is_same_v<T, float>) {
    semiring_kernel_case<S, 4>(seed, zero_fraction);
    semiring_kernel_case<S, 8>(seed, zero_fraction);
  } else {
    semiring_kernel_case<S, 2>(seed, zero_fraction);
    semiring_kernel_case<S, 4>(seed, zero_fraction);
  }
}

TEST(Kernels, EverySemiringMatchesScalarAllWidths) {
  for (std::uint64_t s = 0; s < 4; ++s) {
    semiring_kernel_all_widths<MinPlusSemiring<float>>(s, 0.0);
    semiring_kernel_all_widths<MinPlusSemiring<double>>(s, 0.0);
    semiring_kernel_all_widths<MaxPlusSemiring<float>>(s, 0.0);
    semiring_kernel_all_widths<MaxPlusSemiring<double>>(s, 0.0);
    semiring_kernel_all_widths<CountingSemiring<float>>(s, 0.0);
    semiring_kernel_all_widths<CountingSemiring<double>>(s, 0.0);
    semiring_kernel_all_widths<ViterbiLogSemiring<float>>(s, 0.0);
  }
}

TEST(Kernels, EverySemiringHandlesZeroPadding) {
  // The annihilator (padding) value must behave as a no-op contribution in
  // every semiring, SIMD and scalar alike: -inf kills a max-plus term the
  // same way 0 kills a counting product.
  for (std::uint64_t s = 0; s < 4; ++s) {
    semiring_kernel_all_widths<MinPlusSemiring<float>>(s + 100, 0.3);
    semiring_kernel_all_widths<MaxPlusSemiring<float>>(s + 100, 0.3);
    semiring_kernel_all_widths<CountingSemiring<double>>(s + 100, 0.3);
    semiring_kernel_all_widths<ViterbiLogSemiring<float>>(s + 100, 0.3);
  }
}

template <class S, int W>
void semiring_sep_kernel_case(std::uint64_t seed) {
  using T = typename S::value_type;
  const index_t stride = 3 * W;
  auto c0 = random_semiring_tile<S>(W, stride, seed, 0.0);
  auto a = random_semiring_tile<S>(W, stride, seed + 1, 0.0);
  auto b = random_semiring_tile<S>(W, stride, seed + 2, 0.0);
  auto c1 = c0;
  alignas(kBufferAlignment) T u[W], v[W], w[W];
  SplitMix64 rng(seed + 3);
  for (int i = 0; i < W; ++i) {
    u[i] = T(double(rng.next_below(4)));
    v[i] = T(double(rng.next_below(4)));
    w[i] = T(double(rng.next_below(4)));
  }
  semiring_cb_sep<S, T, W>(c0.data(), stride, a.data(), stride, b.data(),
                           stride, u, v, w);
  semiring_tile_scalar_sep<S, T>(c1.data(), stride, a.data(), stride, b.data(),
                                 stride, W, W, W, u, v, w);
  for (index_t r = 0; r < W; ++r)
    for (index_t col = 0; col < W; ++col)
      EXPECT_EQ(c0[r * stride + col], c1[r * stride + col])
          << semiring_name(S::id) << " W=" << W;
}

TEST(Kernels, SeparableTermEverySemiring) {
  for (std::uint64_t s = 0; s < 4; ++s) {
    semiring_sep_kernel_case<MaxPlusSemiring<float>, 8>(s);
    semiring_sep_kernel_case<MaxPlusSemiring<double>, 4>(s);
    semiring_sep_kernel_case<CountingSemiring<double>, 4>(s);
    semiring_sep_kernel_case<ViterbiLogSemiring<float>, 4>(s);
  }
}

// --- block products -----------------------------------------------------

/// Block-product operands with `zero_fraction` of them the semiring zero.
/// Counting draws non-integer values, so a change in the order of a cell's
/// k contributions changes its rounding.
template <class S>
aligned_vector<typename S::value_type> random_operands(
    index_t count, std::uint64_t seed, double zero_fraction) {
  using T = typename S::value_type;
  aligned_vector<T> buf(static_cast<std::size_t>(count));
  SplitMix64 rng(seed);
  for (auto& x : buf) {
    if (rng.next_unit() < zero_fraction) {
      x = S::zero();
    } else if constexpr (S::id == SemiringId::Counting) {
      x = T(rng.next_in(0.5, 1.5));
    } else {
      x = T(rng.next_in(-50, 50));
    }
  }
  return buf;
}

/// The tile walk a block product replaces: one WxW kernel call per tile
/// triple, in (row tile, k tile, column tile) order, at row stride ld.
template <class T>
void tile_walk(const CbKernel<T>& k, T* C, const T* A, const T* B,
               index_t rows, index_t depth, index_t cols, index_t ld,
               const T* u, const T* v, const T* w) {
  const index_t W = k.width;
  for (index_t rt = 0; rt < rows / W; ++rt)
    for (index_t kt = 0; kt < depth / W; ++kt)
      for (index_t ct = 0; ct < cols / W; ++ct) {
        T* c = C + rt * W * ld + ct * W;
        const T* a = A + rt * W * ld + kt * W;
        const T* b = B + kt * W * ld + ct * W;
        if (u != nullptr)
          k.sep(c, ld, a, ld, b, ld, u + rt * W, v + kt * W, w + ct * W);
        else
          k.pure(c, ld, a, ld, b, ld);
      }
}

/// Where one strided sub-product sits: a rows x cols block of C at (cr,
/// cc), a rows x depth block of A at (cr, ak) and a depth x cols block of
/// B at (ak, cc), inside ld x ld buffers. The separable factors are
/// indexed by the same coordinates.
struct SubProduct {
  index_t rows, depth, cols, ld;
  index_t cr = 0, cc = 0, ak = 0;
};

template <class S>
void block_matches_tile_walk(KernelKind kind, const SubProduct& p,
                             std::uint64_t seed) {
  using T = typename S::value_type;
  const CbKernel<T> k = cb_kernel<T, S>(kind);
  const index_t cells = p.ld * p.ld;
  const auto a = random_operands<S>(cells, seed + 1, 0.2);
  const auto b = random_operands<S>(cells, seed + 2, 0.2);
  // Integer factors keep u*v*w exact (as in sep_kernel_case), so whether
  // the compiler fuses that product into the following add cannot change
  // a selection semiring's result.
  aligned_vector<T> factors(static_cast<std::size_t>(3 * p.ld));
  SplitMix64 rng(seed + 3);
  for (auto& x : factors) x = T(double(1 + rng.next_below(4)));
  const T* u = factors.data() + p.cr;
  const T* v = factors.data() + p.ld + p.ak;
  const T* w = factors.data() + 2 * p.ld + p.cc;
  const T* A = a.data() + p.cr * p.ld + p.ak;
  const T* B = b.data() + p.ak * p.ld + p.cc;
  const auto before = random_operands<S>(cells, seed, 0.2);
  for (const bool sep : {false, true}) {
    auto want = before;
    auto got = before;
    T* Cw = want.data() + p.cr * p.ld + p.cc;
    T* Cg = got.data() + p.cr * p.ld + p.cc;
    if (sep) {
      tile_walk(k, Cw, A, B, p.rows, p.depth, p.cols, p.ld, u, v, w);
      k.block_sep(Cg, A, B, p.rows, p.depth, p.cols, p.ld, u, v, w);
    } else {
      tile_walk<T>(k, Cw, A, B, p.rows, p.depth, p.cols, p.ld, nullptr,
                   nullptr, nullptr);
      k.block(Cg, A, B, p.rows, p.depth, p.cols, p.ld);
    }
    const std::string what =
        std::string(semiring_name(S::id)) + " " +
        std::string(kernel_kind_name(kind)) +
        (sizeof(T) == 4 ? " float" : " double") + " " +
        std::to_string(p.rows) + "x" + std::to_string(p.depth) + "x" +
        std::to_string(p.cols) + " ld=" + std::to_string(p.ld) +
        (sep ? " separable" : " pure");
    EXPECT_EQ(std::memcmp(want.data(), got.data(), want.size() * sizeof(T)),
              0)
        << what;
    index_t outside_changed = 0;
    for (index_t r = 0; r < p.ld; ++r)
      for (index_t c = 0; c < p.ld; ++c) {
        const bool inside = r >= p.cr && r < p.cr + p.rows && c >= p.cc &&
                            c < p.cc + p.cols;
        const std::size_t i = static_cast<std::size_t>(r * p.ld + c);
        if (!inside && std::memcmp(&got[i], &before[i], sizeof(T)) != 0)
          ++outside_changed;
      }
    EXPECT_EQ(outside_changed, 0) << what << ": cells outside the sub-block";
  }
}

TEST(Kernels, BlockProductMatchesTileWalkBitForBit) {
  for (SemiringId sr : {SemiringId::MinPlus, SemiringId::MaxPlus,
                        SemiringId::Counting, SemiringId::ViterbiLog}) {
    for (KernelKind kind :
         {KernelKind::Scalar, KernelKind::Native, KernelKind::Wide}) {
      const auto run = [&](auto s) {
        using S = decltype(s);
        const index_t W =
            cb_kernel<typename S::value_type, S>(kind).width;
        // Whole square blocks, as stage 1 calls it.
        for (index_t bs : {W, 2 * W, 3 * W, 5 * W, index_t{64}})
          block_matches_tile_walk<S>(kind, {bs, bs, bs, bs},
                                     std::uint64_t(bs) * 7);
        // Strided sub-products, as stage 2's recursion calls it: every
        // side taken independently, at nonzero offsets inside ld = 7W.
        const index_t sides[] = {W, 2 * W, 3 * W, 5 * W};
        for (index_t rows : sides)
          for (index_t depth : sides)
            for (index_t cols : sides) {
              SubProduct p{rows, depth, cols, 7 * W};
              p.cr = W;
              p.cc = 2 * W;
              p.ak = 7 * W - depth;
              block_matches_tile_walk<S>(
                  kind, p, std::uint64_t(rows * 131 + depth * 17 + cols));
            }
      };
      with_semiring<float>(sr, run);
      with_semiring<double>(sr, run);
    }
  }
}

TEST(Kernels, OpCountsMatchPaperTableI) {
  // §IV-A: 16 steps * 8 instructions = 128 naive; register caching saves
  // 48 memory instructions leaving 80 (Table I's mix).
  const auto cached = cb_op_counts_cached(4);
  EXPECT_EQ(cached.total(), 80);
  EXPECT_EQ(cached.loads, 12);
  EXPECT_EQ(cached.shuffles, 16);
  EXPECT_EQ(cached.adds, 16);
  EXPECT_EQ(cached.compares, 16);
  EXPECT_EQ(cached.selects, 16);
  EXPECT_EQ(cached.stores, 4);

  const auto naive = cb_op_counts_uncached(4);
  EXPECT_EQ(naive.total(), 128);
  EXPECT_EQ(naive.total() - cached.total(), 48);
}

TEST(Dispatch, KernelWidthsMatchPrecisionAndKind) {
  EXPECT_EQ(cb_kernel<float>(KernelKind::Scalar).width, 4);
  EXPECT_EQ(cb_kernel<float>(KernelKind::Native).width, 4);
  EXPECT_EQ(cb_kernel<float>(KernelKind::Wide).width, 8);
  EXPECT_EQ(cb_kernel<double>(KernelKind::Scalar).width, 4);
  EXPECT_EQ(cb_kernel<double>(KernelKind::Native).width, 2);
  EXPECT_EQ(cb_kernel<double>(KernelKind::Wide).width, 4);
  EXPECT_EQ(kernel_kind_name(KernelKind::Native), "simd128");
}

}  // namespace
}  // namespace cellnpdp
