// Core engine correctness: the blocked two-tier engine must reproduce the
// Fig. 1 loop nest bit-for-bit in pure mode, and the documented generalised
// semantics in weighted / separable-k-term mode, for every kernel backend,
// block geometry and thread count.
#include <gtest/gtest.h>

#include <string>
#include <thread>

#include "common/rng.hpp"
#include "core/maxplus.hpp"
#include "core/reference.hpp"
#include "core/solve.hpp"
#include "layout/convert.hpp"

namespace cellnpdp {
namespace {

template <class T>
NpdpInstance<T> random_instance(index_t n, std::uint64_t seed) {
  NpdpInstance<T> inst;
  inst.n = n;
  inst.init = [seed](index_t i, index_t j) {
    return random_init_value<T>(seed, i, j);
  };
  return inst;
}

TEST(Reference, GoldenModelMatchesFig1OnRandomInstances) {
  for (index_t n : {1, 2, 3, 5, 17, 40, 77}) {
    const auto inst = random_instance<double>(n, 7 + n);
    TriangularMatrix<double> fig1(n);
    fig1.fill(inst.init);
    solve_fig1(fig1);
    const auto ref = solve_reference(inst);
    EXPECT_EQ(max_abs_diff(fig1, ref), 0.0) << "n=" << n;
  }
}

TEST(Reference, SelfTermFoldingHoldsForNegativeDiagonals) {
  // The engine folds Fig. 1's k == i relaxation into the seed; that must be
  // equivalent even when diagonal values are negative.
  for (std::uint64_t seed : {1u, 2u, 3u, 4u}) {
    const index_t n = 23;
    NpdpInstance<double> inst;
    inst.n = n;
    inst.init = [seed](index_t i, index_t j) {
      SplitMix64 rng(seed * 1000003 + static_cast<std::uint64_t>(i * 131 + j));
      return rng.next_in(-20.0, 80.0);  // diagonals may be negative
    };
    TriangularMatrix<double> fig1(n);
    fig1.fill(inst.init);
    solve_fig1(fig1);
    const auto ref = solve_reference(inst);
    EXPECT_EQ(max_abs_diff(fig1, ref), 0.0) << "seed=" << seed;
  }
}

struct EngineCase {
  index_t n;
  index_t bs;
  KernelKind kernel;

  std::string name() const {
    return "n" + std::to_string(n) + "_bs" + std::to_string(bs) + "_" +
           std::string(kernel_kind_name(kernel));
  }
};

std::vector<EngineCase> engine_cases() {
  std::vector<EngineCase> cases;
  for (KernelKind k :
       {KernelKind::Scalar, KernelKind::Native, KernelKind::Wide}) {
    // Block side must be a multiple of every kernel width in play (<= 8).
    for (auto [n, bs] : std::initializer_list<std::pair<index_t, index_t>>{
             {1, 8},    {7, 8},    {8, 8},   {9, 8},   {16, 8},
             {24, 8},   {31, 8},   {40, 16}, {64, 16}, {65, 16},
             {100, 24}, {128, 32}, {130, 32}}) {
      cases.push_back({n, bs, k});
    }
  }
  return cases;
}

class EngineTest : public ::testing::TestWithParam<EngineCase> {};

TEST_P(EngineTest, PureModeMatchesFig1BitExactFloat) {
  const auto& p = GetParam();
  const auto inst = random_instance<float>(p.n, 1234 + p.n);
  NpdpOptions opts;
  opts.block_side = p.bs;
  opts.kernel = p.kernel;
  const auto blocked = solve_blocked(inst, opts);
  const auto ref = solve_reference(inst);
  EXPECT_EQ(max_abs_diff(ref, to_triangular(blocked)), 0.0);
}

TEST_P(EngineTest, PureModeMatchesFig1BitExactDouble) {
  const auto& p = GetParam();
  const auto inst = random_instance<double>(p.n, 777 + p.n);
  NpdpOptions opts;
  opts.block_side = p.bs;
  opts.kernel = p.kernel;
  const auto blocked = solve_blocked(inst, opts);
  const auto ref = solve_reference(inst);
  EXPECT_EQ(max_abs_diff(ref, to_triangular(blocked)), 0.0);
}

TEST_P(EngineTest, WeightedModeMatchesGoldenModel) {
  const auto& p = GetParam();
  auto inst = random_instance<double>(p.n, 31 + p.n);
  inst.weight = [](index_t i, index_t j) { return double((j - i) % 5) + 0.5; };
  NpdpOptions opts;
  opts.block_side = p.bs;
  opts.kernel = p.kernel;
  const auto blocked = solve_blocked(inst, opts);
  const auto ref = solve_reference(inst);
  EXPECT_EQ(max_abs_diff(ref, to_triangular(blocked)), 0.0);
}

TEST_P(EngineTest, SeparableKTermMatchesGoldenModel) {
  const auto& p = GetParam();
  auto inst = random_instance<float>(p.n, 555 + p.n);
  // Small integer factors: products are exact in float.
  aligned_vector<float> u(static_cast<std::size_t>(p.n)),
      v(static_cast<std::size_t>(p.n)), w(static_cast<std::size_t>(p.n));
  SplitMix64 rng(42);
  for (index_t i = 0; i < p.n; ++i) {
    u[static_cast<std::size_t>(i)] = float(rng.next_below(8) + 1);
    v[static_cast<std::size_t>(i)] = float(rng.next_below(8) + 1);
    w[static_cast<std::size_t>(i)] = float(rng.next_below(8) + 1);
  }
  inst.ku = u.data();
  inst.kv = v.data();
  inst.kw = w.data();
  NpdpOptions opts;
  opts.block_side = p.bs;
  opts.kernel = p.kernel;
  const auto blocked = solve_blocked(inst, opts);
  const auto ref = solve_reference(inst);
  EXPECT_EQ(max_abs_diff(ref, to_triangular(blocked)), 0.0);
}

INSTANTIATE_TEST_SUITE_P(Geometries, EngineTest,
                         ::testing::ValuesIn(engine_cases()),
                         [](const auto& info) { return info.param.name(); });

struct ParallelCase {
  index_t n;
  index_t bs;
  index_t sched;
  std::size_t threads;
};

class ParallelEngineTest : public ::testing::TestWithParam<ParallelCase> {};

TEST_P(ParallelEngineTest, ParallelEqualsSerialBitExact) {
  const auto& p = GetParam();
  const auto inst = random_instance<float>(p.n, 4242);
  NpdpOptions serial_opts;
  serial_opts.block_side = p.bs;
  const auto serial = solve_blocked(inst, serial_opts);

  NpdpOptions par_opts = serial_opts;
  par_opts.sched_side = p.sched;
  par_opts.threads = p.threads;
  for (int rep = 0; rep < 3; ++rep) {
    const auto par = solve_blocked(inst, par_opts);
    EXPECT_EQ(max_abs_diff(to_triangular(serial), to_triangular(par)), 0.0)
        << "rep=" << rep;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Configs, ParallelEngineTest,
    ::testing::Values(ParallelCase{64, 8, 1, 2}, ParallelCase{64, 8, 2, 4},
                      ParallelCase{96, 8, 3, 4}, ParallelCase{100, 16, 1, 7},
                      ParallelCase{160, 16, 2, 8}, ParallelCase{33, 16, 4, 3},
                      ParallelCase{8, 8, 1, 4}),
    [](const auto& info) {
      return "n" + std::to_string(info.param.n) + "_bs" +
             std::to_string(info.param.bs) + "_ss" +
             std::to_string(info.param.sched) + "_t" +
             std::to_string(info.param.threads);
    });

TEST(Engine, RejectsBlockSideNotMultipleOfKernelWidth) {
  auto inst = random_instance<float>(16, 1);
  NpdpOptions opts;
  opts.block_side = 6;  // not a multiple of the width-4 native kernel
  EXPECT_THROW(solve_blocked(inst, opts), std::invalid_argument);
}

TEST(Engine, WeightedModeKeepsDiagonalAtInit) {
  auto inst = random_instance<double>(20, 9);
  inst.weight = [](index_t, index_t) { return 1.0; };
  NpdpOptions opts;
  opts.block_side = 8;
  const auto blocked = solve_blocked(inst, opts);
  for (index_t i = 0; i < 20; ++i)
    EXPECT_EQ(blocked.at(i, i), inst.init(i, i));
}

TEST(Engine, MonotoneProperty_ResultNeverExceedsInit) {
  // min-relaxation can only lower values.
  const auto inst = random_instance<float>(90, 2024);
  NpdpOptions opts;
  opts.block_side = 16;
  const auto out = solve_blocked(inst, opts);
  for (index_t i = 0; i < 90; ++i)
    for (index_t j = i; j < 90; ++j)
      EXPECT_LE(out.at(i, j), inst.init(i, j));
}

TEST(Engine, TriangleInequalityFixpoint) {
  // After the closure, no relaxation can improve any cell:
  // d[i][j] <= d[i][k] + d[k][j] for all i < k < j.
  const auto inst = random_instance<double>(60, 11);
  NpdpOptions opts;
  opts.block_side = 8;
  const auto out = solve_blocked(inst, opts);
  for (index_t i = 0; i < 60; ++i)
    for (index_t j = i + 1; j < 60; ++j)
      for (index_t k = i + 1; k < j; ++k)
        EXPECT_LE(out.at(i, j), out.at(i, k) + out.at(k, j) + 1e-12);
}

TEST(Engine, MaxPlusNegationAdapterIsBitIdenticalOracle) {
  // The retired negate-and-solve adapter stays around exactly for this:
  // float negation is exact, so on every instance the adapter accepts it
  // must agree with the native MaxPlusSemiring instantiation bit for bit.
  for (index_t n : {5, 40, 77}) {
    auto inst = random_instance<float>(n, 2026 + n);
    const auto base = inst.init;
    // Mixed-sign seeds make max and min genuinely different closures.
    inst.init = [base](index_t i, index_t j) {
      return base(i, j) - 50.0f;
    };
    inst.weight = [](index_t i, index_t j) {
      return float((i + j) % 7) - 3.0f;
    };
    NpdpOptions opts;
    opts.block_side = 16;
    const auto native = solve_blocked_maxplus(inst, opts);
    const auto adapter = solve_blocked_maxplus_via_negation(inst, opts);
    EXPECT_EQ(max_abs_diff(to_triangular(native), to_triangular(adapter)),
              0.0)
        << "n=" << n;
  }
}

TEST(SolveStats, UtilizationEdgeCases) {
  // Default-constructed stats (no solve attached) must not divide by zero.
  SolveStats empty;
  EXPECT_EQ(empty.utilization(), 0.0);
  EXPECT_EQ(empty.busy_total(), 0.0);

  // Zero wall time with workers recorded: still well-defined.
  SolveStats zero_wall;
  zero_wall.worker_busy = {0.5, 0.5};
  zero_wall.wall_seconds = 0;
  EXPECT_EQ(zero_wall.utilization(), 0.0);

  // Wall time but an empty worker vector (stats requested, work accounted
  // elsewhere): utilization is 0, not NaN.
  SolveStats no_workers;
  no_workers.wall_seconds = 1.0;
  EXPECT_EQ(no_workers.utilization(), 0.0);

  // Sanity of the formula on a fully-busy two-worker second.
  SolveStats busy;
  busy.wall_seconds = 1.0;
  busy.worker_busy = {1.0, 1.0};
  EXPECT_DOUBLE_EQ(busy.utilization(), 1.0);
}

TEST(SolveStats, ConcurrentParallelSolvesKeepIndependentStats) {
  // Two parallel solve_blocked calls racing in one process (the serving
  // layer's steady state) must not interleave their stats: each solve's
  // counters must equal those of the same solve run alone, and the values
  // must stay bit-exact.
  const index_t n = 160;
  NpdpOptions opts;
  opts.block_side = 32;
  opts.sched_side = 1;
  opts.threads = 2;

  const auto inst_a = random_instance<float>(n, 31);
  const auto inst_b = random_instance<float>(n, 77);

  SolveStats alone_a, alone_b;
  const auto ref_a = solve_blocked(inst_a, opts, &alone_a);
  const auto ref_b = solve_blocked(inst_b, opts, &alone_b);

  SolveStats racing_a, racing_b;
  BlockedTriangularMatrix<float> out_a(0, 1), out_b(0, 1);
  std::thread ta([&] { out_a = solve_blocked(inst_a, opts, &racing_a); });
  std::thread tb([&] { out_b = solve_blocked(inst_b, opts, &racing_b); });
  ta.join();
  tb.join();

  for (index_t i = 0; i < n; ++i)
    for (index_t j = i; j < n; ++j) {
      ASSERT_EQ(out_a.at(i, j), ref_a.at(i, j)) << i << "," << j;
      ASSERT_EQ(out_b.at(i, j), ref_b.at(i, j)) << i << "," << j;
    }

  // Work counters are deterministic per instance; a shard leak between the
  // two racing solves would break these equalities.
  EXPECT_EQ(racing_a.tasks, alone_a.tasks);
  EXPECT_EQ(racing_b.tasks, alone_b.tasks);
  EXPECT_EQ(racing_a.engine.kernel_calls, alone_a.engine.kernel_calls);
  EXPECT_EQ(racing_b.engine.kernel_calls, alone_b.engine.kernel_calls);
  EXPECT_EQ(racing_a.engine.cells_finalized, alone_a.engine.cells_finalized);
  EXPECT_EQ(racing_b.engine.cells_finalized, alone_b.engine.cells_finalized);
  EXPECT_EQ(racing_a.engine.scalar_relax(), alone_a.engine.scalar_relax());
  EXPECT_EQ(racing_b.engine.scalar_relax(), alone_b.engine.scalar_relax());
  EXPECT_GT(racing_a.busy_total(), 0.0);
  EXPECT_GT(racing_b.busy_total(), 0.0);
}

}  // namespace
}  // namespace cellnpdp
