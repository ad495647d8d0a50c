// Quickstart: solve a generic NPDP instance three ways and verify they
// agree.
//
//   $ ./quickstart [n]
//
// Walks through the library's core API: define an instance (size + initial
// values), solve with the original Fig. 1 loop, the blocked serial engine,
// and the blocked parallel engine, then compare.
#include <cstdio>
#include <cstdlib>

#include "common/rng.hpp"
#include "common/stopwatch.hpp"
#include "core/reference.hpp"
#include "core/solve.hpp"
#include "layout/convert.hpp"

int main(int argc, char** argv) {
  using namespace cellnpdp;
  const index_t n = argc > 1 ? std::atoll(argv[1]) : 1024;

  // 1. Describe the instance: d[i][j] seeded from a deterministic RNG,
  //    diagonal zero. The engine then computes the Fig. 1 closure
  //    d[i][j] = min(d[i][j], d[i][k] + d[k][j]).
  NpdpInstance<float> inst;
  inst.n = n;
  inst.init = [](index_t i, index_t j) {
    return random_init_value<float>(2024, i, j);
  };

  // 2. The original algorithm (row-major triangle, scalar).
  TriangularMatrix<float> original(n);
  original.fill(inst.init);
  Stopwatch sw1;
  solve_fig1(original);
  std::printf("original (Fig. 1)      : %8.1f ms\n", sw1.seconds() * 1e3);

  // 3. The blocked engine: new data layout + 128-bit SIMD kernels.
  NpdpOptions opts;
  opts.block_side = 64;          // memory blocks, 16 KB of floats
  opts.kernel = KernelKind::Native;
  Stopwatch sw2;
  const auto blocked = solve_blocked(inst, opts);
  std::printf("blocked + SIMD         : %8.1f ms\n", sw2.seconds() * 1e3);

  // 4. The parallel engine: scheduling blocks on four workers.
  opts.threads = 4;
  opts.sched_side = 2;
  Stopwatch sw3;
  const auto parallel = solve_blocked(inst, opts);
  std::printf("blocked + SIMD + tasks : %8.1f ms (4 threads)\n",
              sw3.seconds() * 1e3);

  // 5. All three must agree bit-for-bit.
  const double d1 = max_abs_diff(original, to_triangular(blocked));
  const double d2 = max_abs_diff(original, to_triangular(parallel));
  std::printf("max |original - blocked|  = %g\n", d1);
  std::printf("max |original - parallel| = %g\n", d2);
  std::printf("d[0][n-1] = %g\n", double(blocked.at(0, n - 1)));
  return d1 == 0.0 && d2 == 0.0 ? 0 : 1;
}
