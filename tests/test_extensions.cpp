// Extension tests: integer-cell NPDP, local-store capacity enforcement in
// the Cell model, and wavefront-parallel Zuker folding.
#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "apps/zuker/fold.hpp"
#include "cellsim/npdp_sim.hpp"
#include "common/rng.hpp"
#include "core/reference.hpp"
#include "core/solve.hpp"
#include "core/maxplus.hpp"
#include "core/traceback.hpp"
#include "layout/convert.hpp"

namespace cellnpdp {
namespace {

// --- integer-cell NPDP ---------------------------------------------------

TEST(IntNpdp, IdentityIsSafeSentinel) {
  constexpr std::int32_t id = minplus_identity<std::int32_t>();
  EXPECT_GT(id, 1 << 28);
  EXPECT_TRUE(is_minplus_identity(id));
  // identity + identity must not overflow (padding cells add each other).
  EXPECT_GT(id + id, id);
  EXPECT_FALSE(is_minplus_identity(id / 4));
}

template <class T>
NpdpInstance<T> int_instance(index_t n, std::uint64_t seed) {
  NpdpInstance<T> inst;
  inst.n = n;
  inst.init = [seed](index_t i, index_t j) {
    if (i == j) return T(0);
    SplitMix64 rng(seed ^ (static_cast<std::uint64_t>(i) << 32) ^
                   static_cast<std::uint64_t>(j));
    return static_cast<T>(rng.next_below(1000));
  };
  return inst;
}

struct IntCase {
  index_t n;
  index_t bs;
  KernelKind kernel;
};

class IntEngineTest : public ::testing::TestWithParam<IntCase> {};

TEST_P(IntEngineTest, Int32MatchesGoldenModelExactly) {
  const auto& p = GetParam();
  const auto inst = int_instance<std::int32_t>(p.n, 99 + p.n);
  NpdpOptions opts;
  opts.block_side = p.bs;
  opts.kernel = p.kernel;
  const auto blocked = solve_blocked(inst, opts);
  const auto ref = solve_reference(inst);
  for (index_t i = 0; i < p.n; ++i)
    for (index_t j = i; j < p.n; ++j)
      ASSERT_EQ(blocked.at(i, j), ref.at(i, j)) << i << "," << j;
}

INSTANTIATE_TEST_SUITE_P(
    Geometries, IntEngineTest,
    ::testing::Values(IntCase{16, 8, KernelKind::Native},
                      IntCase{48, 8, KernelKind::Native},
                      IntCase{48, 16, KernelKind::Wide},
                      IntCase{65, 16, KernelKind::Native},
                      IntCase{100, 24, KernelKind::Scalar}),
    [](const auto& info) {
      return "n" + std::to_string(info.param.n) + "_bs" +
             std::to_string(info.param.bs) + "_" +
             std::string(kernel_kind_name(info.param.kernel));
    });

TEST(IntNpdp, ParallelInt32MatchesSerial) {
  const auto inst = int_instance<std::int32_t>(120, 5);
  NpdpOptions serial, par;
  serial.block_side = par.block_side = 16;
  par.threads = 4;
  const auto a = solve_blocked(inst, serial);
  const auto b = solve_blocked(inst, par);
  for (index_t i = 0; i < 120; ++i)
    for (index_t j = i; j < 120; ++j) ASSERT_EQ(a.at(i, j), b.at(i, j));
}

TEST(IntNpdp, ArgminCertificateHoldsForInt32) {
  const auto inst = int_instance<std::int32_t>(60, 8);
  NpdpOptions opts;
  opts.block_side = 16;
  const auto values = solve_blocked(inst, opts);
  for (index_t i = 0; i < 60; ++i)
    for (index_t j = i + 1; j < 60; ++j) {
      const index_t k = split_at(values, inst, i, j);
      if (k < 0) {
        EXPECT_EQ(values.at(i, j), inst.init(i, j));
      } else {
        EXPECT_EQ(values.at(i, j), values.at(i, k) + values.at(k, j));
      }
    }
}

// --- local-store enforcement ----------------------------------------------

TEST(CellSimLs, RejectsBlocksThatCannotBeSixBuffered) {
  NpdpInstance<float> inst;
  inst.n = 512;
  inst.init = [](index_t, index_t) { return 1.0f; };
  CellSimOptions o;
  o.block_side = 128;  // 64 KB blocks: 6 x 64 KB + code > 256 KB
  EXPECT_THROW(simulate_cellnpdp(inst, qs20(), o), std::invalid_argument);
  o.enforce_local_store = false;  // hypothetical-machine escape hatch
  EXPECT_NO_THROW(simulate_cellnpdp(inst, qs20(), o));
}

TEST(CellSimLs, SmallLocalStoreMachinesNeedSmallBlocks) {
  // §VI-D: "there may be other processors with smaller local stores".
  NpdpInstance<float> inst;
  inst.n = 512;
  inst.init = [](index_t, index_t) { return 1.0f; };
  CellConfig tiny = cell_with_local_store(64 * 1024);
  CellSimOptions o;
  o.block_side = 64;  // 16 KB blocks: 6 x 16 KB > 64 KB
  EXPECT_THROW(simulate_cellnpdp(inst, tiny, o), std::invalid_argument);
  o.block_side = 32;  // 4 KB blocks fit
  EXPECT_NO_THROW(simulate_cellnpdp(inst, tiny, o));
  EXPECT_GE(tiny.max_block_side(Precision::Single), 32);
  EXPECT_LT(tiny.max_block_side(Precision::Single), 64);
}

TEST(CellSimLs, PaperBlockSizeFitsTheRealLocalStore) {
  NpdpInstance<float> inst;
  inst.n = 512;
  inst.init = [](index_t, index_t) { return 1.0f; };
  CellSimOptions o;
  o.block_side = 88;  // the paper's 32 KB single-precision block
  EXPECT_NO_THROW(simulate_cellnpdp(inst, qs20(), o));
}

// --- parallel Zuker ---------------------------------------------------------

TEST(ParallelZuker, BitIdenticalToSerialAcrossSizes) {
  for (index_t n : {50, 128, 300}) {
    const auto seq = zuker::random_sequence(n, 31 + static_cast<std::uint64_t>(n));
    zuker::ZukerFolder serial({}, {true, 1});
    zuker::ZukerFolder parallel({}, {true, 4});
    const auto a = serial.fold(seq);
    const auto b = parallel.fold(seq);
    EXPECT_EQ(a.mfe, b.mfe) << "n=" << n;
    EXPECT_EQ(a.structure, b.structure) << "n=" << n;
  }
}

TEST(ParallelZuker, RepeatedParallelRunsAreDeterministic) {
  const auto seq = zuker::random_sequence(200, 12);
  zuker::ZukerFolder first({}, {true, 4});
  const auto a = first.fold(seq);
  for (int rep = 0; rep < 3; ++rep) {
    zuker::ZukerFolder again({}, {true, 4});
    const auto b = again.fold(seq);
    ASSERT_EQ(a.mfe, b.mfe);
    ASSERT_EQ(a.structure, b.structure);
  }
}

// --- wavefront-barrier schedules -------------------------------------------

TEST(Wavefront, BarrierScheduleIsSlowerInTheSimulator) {
  // §II-B: the prior works' step-by-step processing underutilises the
  // cores; the task queue overlaps wavefronts. Same work, different
  // makespan.
  NpdpInstance<float> inst;
  inst.n = 4096;
  inst.init = [](index_t, index_t) { return 1.0f; };
  CellSimOptions queue, barrier;
  queue.block_side = barrier.block_side = 64;
  barrier.barrier_wavefront = true;
  const auto rq = simulate_cellnpdp(inst, qs20(), queue);
  const auto rb = simulate_cellnpdp(inst, qs20(), barrier);
  EXPECT_EQ(rq.dma_bytes_in, rb.dma_bytes_in) << "same work either way";
  EXPECT_GT(rb.seconds, rq.seconds * 1.1)
      << "the barrier must cost at least 10% at 16 SPEs";
}

TEST(Wavefront, BarrierScheduleStillComputesCorrectly) {
  NpdpInstance<float> inst;
  inst.n = 128;
  inst.init = [](index_t i, index_t j) {
    return random_init_value<float>(77, i, j);
  };
  CellSimOptions o;
  o.block_side = 16;
  o.mode = ExecMode::Functional;
  o.barrier_wavefront = true;
  BlockedTriangularMatrix<float> out(1, 16);
  simulate_cellnpdp(inst, qs20(), o, &out);
  const auto ref = solve_reference(inst);
  EXPECT_EQ(max_abs_diff(ref, to_triangular(out)), 0.0);
}

// --- max-plus adapter --------------------------------------------------------

TEST(MaxPlus, AdapterMatchesDirectGoldenModel) {
  for (index_t n : {1, 9, 40, 100}) {
    NpdpInstance<double> inst;
    inst.n = n;
    inst.init = [n](index_t i, index_t j) {
      return random_init_value<double>(500 + static_cast<std::uint64_t>(n),
                                       i, j) - 50.0;  // mixed signs
    };
    NpdpOptions opts;
    opts.block_side = 16;
    const auto got = solve_blocked_maxplus(inst, opts);
    const auto ref = solve_reference_maxplus(inst);
    EXPECT_EQ(max_abs_diff(ref, to_triangular(got)), 0.0) << "n=" << n;
  }
}

TEST(MaxPlus, WeightedModeWorksThroughTheAdapter) {
  NpdpInstance<double> inst;
  inst.n = 60;
  inst.init = [](index_t i, index_t j) {
    return i == j ? 0.0 : random_init_value<double>(7, i, j);
  };
  inst.weight = [](index_t i, index_t j) { return double((j - i) % 3); };
  NpdpOptions opts;
  opts.block_side = 8;
  const auto got = solve_blocked_maxplus(inst, opts);
  const auto ref = solve_reference_maxplus(inst);
  EXPECT_EQ(max_abs_diff(ref, to_triangular(got)), 0.0);
}

TEST(MaxPlus, ResultDominatesEveryRelaxation) {
  NpdpInstance<float> inst;
  inst.n = 50;
  inst.init = [](index_t i, index_t j) {
    return random_init_value<float>(31, i, j);
  };
  NpdpOptions opts;
  opts.block_side = 8;
  const auto out = solve_blocked_maxplus(inst, opts);
  for (index_t i = 0; i < 50; ++i)
    for (index_t j = i + 1; j < 50; ++j) {
      EXPECT_GE(out.at(i, j), inst.init(i, j));
      for (index_t k = i + 1; k < j; ++k)
        EXPECT_GE(out.at(i, j), out.at(i, k) + out.at(k, j) - 1e-5f);
    }
}

// The historical negation adapter could not carry a separable k-term
// (u*v*w has no factor-wise sign flip); the native instantiation can.
TEST(MaxPlus, SeparableKTermWorksNatively) {
  NpdpInstance<double> inst;
  inst.n = 40;
  inst.init = [](index_t i, index_t j) {
    return random_init_value<double>(91, i, j) - 50.0;
  };
  std::vector<double> u(40), v(40), w(40);
  SplitMix64 rng(4242);
  for (index_t i = 0; i < 40; ++i) {
    u[i] = rng.next_in(-2.0, 2.0);
    v[i] = rng.next_in(-2.0, 2.0);
    w[i] = rng.next_in(-2.0, 2.0);
  }
  inst.ku = u.data();
  inst.kv = v.data();
  inst.kw = w.data();
  NpdpOptions opts;
  opts.block_side = 8;
  const auto got = solve_blocked_maxplus(inst, opts);
  const auto ref = solve_reference_maxplus(inst);
  EXPECT_EQ(max_abs_diff(ref, to_triangular(got)), 0.0);
}

TEST(MaxPlus, NegationAdapterStillRejectsSeparableKTerm) {
  NpdpInstance<float> inst;
  inst.n = 8;
  inst.init = [](index_t, index_t) { return 0.0f; };
  float u[8] = {};
  inst.ku = inst.kv = inst.kw = u;
  NpdpOptions opts;
  opts.block_side = 8;
  EXPECT_THROW(solve_blocked_maxplus_via_negation(inst, opts),
               std::invalid_argument);
}

}  // namespace
}  // namespace cellnpdp
