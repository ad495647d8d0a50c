// Table I — the computing-block kernel: instruction mix, modeled SPU
// cycles, and measured native throughput of every kernel backend
// (google-benchmark), beside the register-blocked block product that stage
// 1 calls once per middle block pair, the strided sub-products of side 32,
// 16 and 8 that stage 2's recursion calls inside a 64-wide memory block,
// and the 4x4 corner leaf it ends in.
#include <benchmark/benchmark.h>

#include <cstdio>

#include "cellsim/spu_pipeline.hpp"
#include "common/aligned.hpp"
#include "common/rng.hpp"
#include "core/engine.hpp"
#include "simd/dispatch.hpp"

namespace cellnpdp {
namespace {

template <class T, int W>
void bm_kernel(benchmark::State& state) {
  constexpr index_t stride = 64;
  aligned_vector<T> c(W * stride), a(W * stride), b(W * stride);
  SplitMix64 rng(1);
  for (auto& x : c) x = T(rng.next_in(0, 100));
  for (auto& x : a) x = T(rng.next_in(0, 100));
  for (auto& x : b) x = T(rng.next_in(0, 100));
  for (auto _ : state) {
    minplus_cb<T, W>(c.data(), stride, a.data(), stride, b.data(), stride);
    benchmark::DoNotOptimize(c.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations() * W * W * W);  // relaxations
}

template <class T, int W>
void bm_block(benchmark::State& state) {
  constexpr index_t bs = 64;
  aligned_vector<T> c(bs * bs), a(bs * bs), b(bs * bs);
  SplitMix64 rng(3);
  for (auto& x : c) x = T(rng.next_in(0, 100));
  for (auto& x : a) x = T(rng.next_in(0, 100));
  for (auto& x : b) x = T(rng.next_in(0, 100));
  for (auto _ : state) {
    semiring_block<MinPlusSemiring<T>, T, W>(c.data(), a.data(), b.data(), bs,
                                             bs, bs, bs);
    benchmark::DoNotOptimize(c.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations() * bs * bs * bs);  // relaxations
}

/// A side x side x side sub-product at row stride 64, placed as stage 2's
/// recursion places its strips: away from the memory block's first cell.
template <class T, int W>
void bm_strip(benchmark::State& state) {
  constexpr index_t ld = 64;
  const index_t side = state.range(0);
  aligned_vector<T> c(ld * ld), a(ld * ld), b(ld * ld);
  SplitMix64 rng(4);
  for (auto& x : c) x = T(rng.next_in(0, 100));
  for (auto& x : a) x = T(rng.next_in(0, 100));
  for (auto& x : b) x = T(rng.next_in(0, 100));
  const index_t off = ld - side;
  for (auto _ : state) {
    semiring_block<MinPlusSemiring<T>, T, W>(
        c.data() + off, a.data() + off * ld + off, b.data() + off * ld, side,
        side, side, ld);
    benchmark::DoNotOptimize(c.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations() * side * side * side);
}

/// The engine's 4x4 corner leaf with the pure min-plus fold: W^2 (W-1)
/// relaxations on local tiles.
template <class T>
void bm_corner(benchmark::State& state) {
  using S = MinPlusSemiring<T>;
  constexpr int W = 4;
  T c[W][W], a[W][W], b[W][W];
  SplitMix64 rng(5);
  for (int r = 0; r < W; ++r)
    for (int k = 0; k < W; ++k) {
      c[r][k] = T(rng.next_in(0, 100));
      a[r][k] = T(rng.next_in(0, 100));
      b[r][k] = T(rng.next_in(0, 100));
    }
  for (auto _ : state) {
    detail::corner_leaf<W>(
        c, a, b, 0, 0,
        [](T& acc, T x, T y, index_t, index_t, index_t) {
          acc = S::plus(acc, S::times(x, y));
        },
        [](int, int, T, T acc) { return acc; });
    benchmark::DoNotOptimize(c);
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations() * W * W * (W - 1));
}

template <class T>
void bm_kernel_scalar(benchmark::State& state) {
  const index_t side = state.range(0);
  constexpr index_t stride = 64;
  aligned_vector<T> c(side * stride), a(side * stride), b(side * stride);
  SplitMix64 rng(2);
  for (auto& x : c) x = T(rng.next_in(0, 100));
  for (auto& x : a) x = T(rng.next_in(0, 100));
  for (auto& x : b) x = T(rng.next_in(0, 100));
  for (auto _ : state) {
    minplus_tile_scalar<T>(c.data(), stride, a.data(), stride, b.data(),
                           stride, side);
    benchmark::DoNotOptimize(c.data());
  }
  state.SetItemsProcessed(state.iterations() * side * side * side);
}

BENCHMARK(bm_kernel<float, 4>)->Name("minplus_cb/sp/128bit");
BENCHMARK(bm_kernel<float, 8>)->Name("minplus_cb/sp/256bit");
BENCHMARK(bm_kernel<double, 2>)->Name("minplus_cb/dp/128bit");
BENCHMARK(bm_kernel<double, 4>)->Name("minplus_cb/dp/256bit");
BENCHMARK(bm_block<float, 4>)->Name("minplus_block64/sp/128bit");
BENCHMARK(bm_block<float, 8>)->Name("minplus_block64/sp/256bit");
BENCHMARK(bm_block<double, 2>)->Name("minplus_block64/dp/128bit");
BENCHMARK(bm_block<double, 4>)->Name("minplus_block64/dp/256bit");
BENCHMARK(bm_strip<float, 4>)->Name("minplus_strip/sp/128bit/ld64")
    ->Arg(32)->Arg(16)->Arg(8);
BENCHMARK(bm_strip<float, 8>)->Name("minplus_strip/sp/256bit/ld64")
    ->Arg(32)->Arg(16)->Arg(8);
BENCHMARK(bm_corner<float>)->Name("minplus_corner4/sp");
BENCHMARK(bm_kernel_scalar<float>)->Name("minplus_scalar/sp")->Arg(4);
BENCHMARK(bm_kernel_scalar<double>)->Name("minplus_scalar/dp")->Arg(4);

void print_table1() {
  std::printf("\n=== Table I: SIMD instruction mix of one 4x4 computing-"
              "block relaxation ===\n");
  const auto cached = cb_op_counts_cached(4);
  std::printf("load %d | shuffle %d | add %d | compare %d | select %d | "
              "store %d  -> %d instructions (naive: %d; register caching "
              "saves %d memory instructions)\n",
              cached.loads, cached.shuffles, cached.adds, cached.compares,
              cached.selects, cached.stores, cached.total(),
              cb_op_counts_uncached(4).total(),
              cb_op_counts_uncached(4).total() - cached.total());
  const auto sp = spu_latencies(Precision::Single);
  const auto dp = spu_latencies(Precision::Double);
  std::printf("SPU pipeline model: SP kernel %d cycles cold, %d cycles "
              "steady-state (paper's hand schedule: 54); DP (2x2) %d cold, "
              "%d steady.\n",
              kernel_cold_cycles(4, sp), kernel_steady_cycles(4, sp),
              kernel_cold_cycles(2, dp), kernel_steady_cycles(2, dp));
}

}  // namespace
}  // namespace cellnpdp

int main(int argc, char** argv) {
  cellnpdp::print_table1();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
