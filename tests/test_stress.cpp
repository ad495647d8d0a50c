// Stress and adversarial-input tests: randomized configuration sweeps,
// degenerate instances, tie-heavy and infinity-laden inputs, and
// concurrency hammering. These are the tests that catch the bugs the
// structured suites are too polite to trigger.
#include <gtest/gtest.h>

#include <cmath>

#include "common/rng.hpp"
#include "common/thread_pool.hpp"
#include "core/reference.hpp"
#include "core/solve.hpp"
#include "core/traceback.hpp"
#include "layout/convert.hpp"

namespace cellnpdp {
namespace {

// --- randomized configuration sweep --------------------------------------

TEST(Fuzz, RandomGeometriesAndWorkloadsMatchGoldenModel) {
  SplitMix64 cfg_rng(20260704);
  const KernelKind kinds[] = {KernelKind::Scalar, KernelKind::Native,
                              KernelKind::Wide};
  for (int trial = 0; trial < 60; ++trial) {
    const index_t n = 1 + static_cast<index_t>(cfg_rng.next_below(90));
    const KernelKind kind = kinds[cfg_rng.next_below(3)];
    // Block side: random multiple of 8 in [8, 40].
    const index_t bs = 8 * (1 + static_cast<index_t>(cfg_rng.next_below(5)));
    const std::uint64_t seed = cfg_rng.next_u64();
    const bool negative = cfg_rng.next_below(2) == 0;
    const double inf_frac = cfg_rng.next_below(3) == 0 ? 0.2 : 0.0;

    NpdpInstance<float> inst;
    inst.n = n;
    inst.init = [seed, negative, inf_frac](index_t i, index_t j) {
      SplitMix64 rng(seed ^ (static_cast<std::uint64_t>(i) * 131071u) ^
                     static_cast<std::uint64_t>(j));
      if (i != j && rng.next_unit() < inf_frac)
        return minplus_identity<float>();
      const double lo = negative ? -40.0 : 0.0;
      return static_cast<float>(rng.next_in(lo, 100.0));
    };

    NpdpOptions opts;
    opts.block_side = bs;
    opts.kernel = kind;
    const auto blocked = solve_blocked(inst, opts);
    const auto ref = solve_reference(inst);
    ASSERT_EQ(max_abs_diff(ref, to_triangular(blocked)), 0.0)
        << "trial " << trial << ": n=" << n << " bs=" << bs << " kernel="
        << kernel_kind_name(kind) << (negative ? " negative" : "")
        << " inf_frac=" << inf_frac;
  }
}

TEST(Fuzz, AllTiesStillProduceValidArgminCertificates) {
  // Every off-diagonal cell equal: the k == i self-term ties the seed, and
  // no split beats it; the seed must win the tie.
  NpdpInstance<float> inst;
  inst.n = 48;
  inst.init = [](index_t i, index_t j) { return i == j ? 0.0f : 7.0f; };
  NpdpOptions opts;
  opts.block_side = 16;
  const auto values = solve_blocked(inst, opts);
  for (index_t i = 0; i < 48; ++i)
    for (index_t j = i + 1; j < 48; ++j) {
      EXPECT_EQ(values.at(i, j), 7.0f);  // 7 can never be beaten (7+7>7)
      EXPECT_EQ(split_at(values, inst, i, j), -1);
    }
}

TEST(Fuzz, AllInfinityInstanceStaysInfinity) {
  NpdpInstance<float> inst;
  inst.n = 40;
  inst.init = [](index_t i, index_t j) {
    return i == j ? 0.0f : minplus_identity<float>();
  };
  NpdpOptions opts;
  opts.block_side = 8;
  const auto out = solve_blocked(inst, opts);
  for (index_t i = 0; i < 40; ++i)
    for (index_t j = i + 1; j < 40; ++j)
      EXPECT_TRUE(is_minplus_identity(out.at(i, j)));
}

TEST(Fuzz, ZeroEverywhereIsAFixpoint) {
  NpdpInstance<double> inst;
  inst.n = 33;
  inst.init = [](index_t, index_t) { return 0.0; };
  NpdpOptions opts;
  opts.block_side = 8;
  const auto out = solve_blocked(inst, opts);
  for (index_t i = 0; i < 33; ++i)
    for (index_t j = i; j < 33; ++j) EXPECT_EQ(out.at(i, j), 0.0);
}

TEST(Fuzz, TinySizesEveryBlockGeometry) {
  // n in [0, 12] across block sides: the padding / ragged-edge gauntlet.
  for (index_t n = 0; n <= 12; ++n) {
    for (index_t bs : {8, 16, 24}) {
      NpdpInstance<float> inst;
      inst.n = n;
      inst.init = [](index_t i, index_t j) {
        return random_init_value<float>(1, i, j);
      };
      NpdpOptions opts;
      opts.block_side = bs;
      const auto out = solve_blocked(inst, opts);
      if (n == 0) continue;
      const auto ref = solve_reference(inst);
      ASSERT_EQ(max_abs_diff(ref, to_triangular(out)), 0.0)
          << "n=" << n << " bs=" << bs;
    }
  }
}

// --- concurrency hammering -------------------------------------------------

TEST(Stress, ParallelSolverUnderRepeatedContention) {
  NpdpInstance<float> inst;
  inst.n = 128;
  inst.init = [](index_t i, index_t j) {
    return random_init_value<float>(55, i, j);
  };
  NpdpOptions serial;
  serial.block_side = 8;  // 16x16 block grid: lots of tasks
  const auto expect = solve_blocked(inst, serial);
  for (int rep = 0; rep < 10; ++rep) {
    NpdpOptions par = serial;
    par.threads = 1 + static_cast<std::size_t>(rep % 8);
    par.sched_side = 1 + rep % 3;
    const auto got = solve_blocked(inst, par);
    ASSERT_EQ(max_abs_diff(to_triangular(expect), to_triangular(got)), 0.0)
        << "rep " << rep;
  }
}

TEST(Stress, ThreadPoolNestedSubmitsAndWaits) {
  ThreadPool pool(4);
  std::atomic<int> count{0};
  for (int outer = 0; outer < 50; ++outer) {
    pool.submit([&] {
      ++count;
      for (int inner = 0; inner < 4; ++inner)
        pool.submit([&] { ++count; });
    });
  }
  pool.wait_idle();
  EXPECT_EQ(count.load(), 50 * 5);
}

TEST(Stress, ThreadPoolManyTinyParallelFors) {
  ThreadPool pool(3);
  for (int rep = 0; rep < 100; ++rep) {
    std::atomic<std::size_t> sum{0};
    pool.parallel_for(0, static_cast<std::size_t>(rep + 1),
                      [&](std::size_t i) { sum += i + 1; });
    EXPECT_EQ(sum.load(),
              static_cast<std::size_t>(rep + 1) * (rep + 2) / 2);
  }
}

// --- input validation -------------------------------------------------------

TEST(Validation, EmptyInstanceIsHarmless) {
  NpdpInstance<float> inst;
  inst.n = 0;
  inst.init = [](index_t, index_t) { return 0.0f; };
  NpdpOptions opts;
  opts.block_side = 8;
  const auto out = solve_blocked(inst, opts);
  EXPECT_EQ(out.size(), 0);
  EXPECT_EQ(out.blocks_per_side(), 0);
}

TEST(Validation, SingleCellInstance) {
  NpdpInstance<float> inst;
  inst.n = 1;
  inst.init = [](index_t, index_t) { return 3.5f; };
  NpdpOptions opts;
  opts.block_side = 8;
  const auto out = solve_blocked(inst, opts);
  EXPECT_EQ(out.at(0, 0), 3.5f);
}

}  // namespace
}  // namespace cellnpdp
