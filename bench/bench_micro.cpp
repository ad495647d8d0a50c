// Micro-benchmarks (google-benchmark): layout access patterns, the
// dependence-graph scheduler, and application bifurcation primitives.
#include <benchmark/benchmark.h>

#include "apps/zuker/fold.hpp"
#include "common/rng.hpp"
#include "layout/blocked.hpp"
#include "layout/triangular.hpp"
#include "simd/vec.hpp"
#include "taskgraph/dependence_graph.hpp"
#include "taskgraph/block_scheduler.hpp"

namespace cellnpdp {
namespace {

// The §III locality argument at micro scale: walking a column of the
// row-major triangle strides non-uniformly; the blocked layout walks
// within one contiguous block.
void bm_triangular_column_walk(benchmark::State& state) {
  const index_t n = state.range(0);
  TriangularMatrix<float> t(n);
  t.fill([](index_t i, index_t j) { return float(i + j); });
  const index_t j = n - 1;
  for (auto _ : state) {
    float acc = 0;
    for (index_t k = 0; k < j; ++k) acc += t.at(k, j);
    benchmark::DoNotOptimize(acc);
  }
  state.SetItemsProcessed(state.iterations() * (n - 1));
}

void bm_blocked_block_walk(benchmark::State& state) {
  const index_t n = state.range(0);
  BlockedTriangularMatrix<float> b(n, 64);
  b.fill([](index_t i, index_t j) { return float(i + j); });
  const index_t cells = b.cells_per_block();
  const float* blk = b.block(0, b.blocks_per_side() - 1);
  for (auto _ : state) {
    float acc = 0;
    for (index_t c = 0; c < cells; ++c) acc += blk[c];
    benchmark::DoNotOptimize(acc);
  }
  state.SetItemsProcessed(state.iterations() * cells);
}

void bm_block_schedule(benchmark::State& state) {
  const index_t m = state.range(0);
  BlockScheduler::Options o;
  o.side = m;
  for (auto _ : state) {
    BlockScheduler sched(o);
    index_t count = 0;
    sched.run([](index_t, index_t, index_t& n) { return ++n > 0; }, &count);
    benchmark::DoNotOptimize(count);
  }
  state.SetItemsProcessed(state.iterations() * triangle_cells(m));
}

void bm_zuker_bifurcation_row(benchmark::State& state) {
  const index_t len = state.range(0);
  aligned_vector<float> row(static_cast<std::size_t>(len)),
      rowt(static_cast<std::size_t>(len));
  SplitMix64 rng(1);
  for (auto& x : row) x = float(rng.next_in(0, 50));
  for (auto& x : rowt) x = float(rng.next_in(0, 50));
  using V8 = Vec<float, 8>;
  for (auto _ : state) {
    V8 acc = V8::set1(1e30f);
    index_t k = 0;
    for (; k + 8 <= len; k += 8)
      acc = vmin(acc, V8::loadu(row.data() + k) + V8::loadu(rowt.data() + k));
    alignas(kBufferAlignment) float lanes[8];
    acc.store(lanes);
    float best = 1e30f;
    for (int l = 0; l < 8; ++l) best = std::min(best, lanes[l]);
    for (; k < len; ++k)
      best = std::min(best, row[static_cast<std::size_t>(k)] +
                                rowt[static_cast<std::size_t>(k)]);
    benchmark::DoNotOptimize(best);
  }
  state.SetItemsProcessed(state.iterations() * len);
}

BENCHMARK(bm_triangular_column_walk)->Arg(1024)->Arg(4096);
BENCHMARK(bm_blocked_block_walk)->Arg(1024)->Arg(4096);
BENCHMARK(bm_block_schedule)->Arg(16)->Arg(64);
BENCHMARK(bm_zuker_bifurcation_row)->Arg(256)->Arg(2048);

}  // namespace
}  // namespace cellnpdp

BENCHMARK_MAIN();
