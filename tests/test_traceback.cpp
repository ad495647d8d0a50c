// Split-scan traceback tests.
//
// The central property is the *certificate*: for every cell, either
// split_at = -1 and the value equals what the seed/init produces, or
// split_at = k and the value equals exactly the k-relaxation recomputed
// from the final table. This is order-independent, so it holds for every
// kernel and geometry. With non-integer separable factors the kernels may
// contract a candidate into a fused multiply-add where the scan does not,
// so that case checks only that every split is in range and that the
// tree's costs add back up to the root value.
#include <gtest/gtest.h>

#include <vector>

#include "apps/matrix_chain/matrix_chain.hpp"
#include "common/rng.hpp"
#include "core/reference.hpp"
#include "core/solve.hpp"
#include "core/traceback.hpp"
#include "layout/convert.hpp"

namespace cellnpdp {
namespace {

template <class T>
void check_certificate(const NpdpInstance<T>& inst,
                       const BlockedTriangularMatrix<T>& values) {
  const bool general = inst.general_mode();
  for (index_t i = 0; i < inst.n; ++i)
    for (index_t j = i + 1; j < inst.n; ++j) {
      const T val = values.at(i, j);
      const index_t k = split_at(values, inst, i, j);
      if (k < 0) {
        // The seed survived.
        T seed = inst.init(i, j);
        if (!general) {
          const T self = seed + inst.init(i, i);
          if (self < seed) seed = self;
        }
        EXPECT_EQ(val, seed) << "(" << i << "," << j << ") leaf";
        continue;
      }
      ASSERT_GT(k, i);
      ASSERT_LT(k, j);
      T cand = values.at(i, k) + values.at(k, j);
      if (inst.ku != nullptr) cand += inst.ku[i] * inst.kv[k] * inst.kw[j];
      if (inst.kterm) cand += inst.kterm(i, k, j);
      if (general && inst.weight) cand += inst.weight(i, j);
      EXPECT_EQ(val, cand) << "(" << i << "," << j << ") via k=" << k;
    }
}

struct ArgCase {
  index_t n;
  index_t bs;
  KernelKind kernel;
};

class ArgminTest : public ::testing::TestWithParam<ArgCase> {};

TEST_P(ArgminTest, PureModeCertificateHolds) {
  const auto& p = GetParam();
  NpdpInstance<float> inst;
  inst.n = p.n;
  inst.init = [](index_t i, index_t j) {
    return random_init_value<float>(17, i, j);
  };
  NpdpOptions opts;
  opts.block_side = p.bs;
  opts.kernel = p.kernel;
  const auto values = solve_blocked(inst, opts);

  // Values must be bit-exact vs the golden model.
  const auto ref = solve_reference(inst);
  EXPECT_EQ(max_abs_diff(ref, to_triangular(values)), 0.0);
  check_certificate(inst, values);
}

TEST_P(ArgminTest, WeightedModeCertificateHolds) {
  const auto& p = GetParam();
  NpdpInstance<double> inst;
  inst.n = p.n;
  inst.init = [](index_t i, index_t j) {
    return i == j ? 0.0 : random_init_value<double>(23, i, j) + 50.0;
  };
  inst.weight = [](index_t i, index_t j) { return double((i + j) % 7); };
  NpdpOptions opts;
  opts.block_side = p.bs;
  opts.kernel = p.kernel;
  const auto values = solve_blocked(inst, opts);
  const auto ref = solve_reference(inst);
  EXPECT_EQ(max_abs_diff(ref, to_triangular(values)), 0.0);
  check_certificate(inst, values);
}

TEST_P(ArgminTest, SeparableKTermCertificateHolds) {
  const auto& p = GetParam();
  NpdpInstance<float> inst;
  inst.n = p.n;
  inst.init = [](index_t i, index_t j) {
    return i == j ? 0.0f : random_init_value<float>(29, i, j) + 100.0f;
  };
  aligned_vector<float> u(static_cast<std::size_t>(p.n)),
      v(static_cast<std::size_t>(p.n)), w(static_cast<std::size_t>(p.n));
  SplitMix64 rng(4);
  for (index_t i = 0; i < p.n; ++i) {
    u[static_cast<std::size_t>(i)] = float(rng.next_below(5) + 1);
    v[static_cast<std::size_t>(i)] = float(rng.next_below(5) + 1);
    w[static_cast<std::size_t>(i)] = float(rng.next_below(5) + 1);
  }
  inst.ku = u.data();
  inst.kv = v.data();
  inst.kw = w.data();
  NpdpOptions opts;
  opts.block_side = p.bs;
  opts.kernel = p.kernel;
  const auto values = solve_blocked(inst, opts);
  const auto ref = solve_reference(inst);
  EXPECT_EQ(max_abs_diff(ref, to_triangular(values)), 0.0);
  check_certificate(inst, values);
}

TEST_P(ArgminTest, GeneralKTermCertificateHolds) {
  const auto& p = GetParam();
  NpdpInstance<double> inst;
  inst.n = p.n;
  inst.init = [](index_t i, index_t j) {
    return i == j ? 0.0 : random_init_value<double>(31, i, j);
  };
  std::vector<double> cost(static_cast<std::size_t>(p.n));
  for (index_t x = 0; x < p.n; ++x)
    cost[static_cast<std::size_t>(x)] = 0.25 * double(x % 7);
  // at() throws on a padded index, which must never reach the functor.
  inst.kterm = [&cost](index_t i, index_t k, index_t j) {
    return cost.at(static_cast<std::size_t>(i)) +
           2.0 * cost.at(static_cast<std::size_t>(k)) +
           cost.at(static_cast<std::size_t>(j));
  };
  NpdpOptions opts;
  opts.block_side = p.bs;
  opts.kernel = p.kernel;
  const auto values = solve_blocked(inst, opts);
  const auto ref = solve_reference(inst);
  EXPECT_EQ(max_abs_diff(ref, to_triangular(values)), 0.0);
  check_certificate(inst, values);
}

TEST_P(ArgminTest, NonIntegerSeparableSplitsAddUpToTheRoot) {
  const auto& p = GetParam();
  NpdpInstance<float> inst;
  inst.n = p.n;
  inst.init = [](index_t i, index_t j) {
    return j <= i + 1 ? 0.0f : minplus_identity<float>();
  };
  aligned_vector<float> u(static_cast<std::size_t>(p.n)),
      v(static_cast<std::size_t>(p.n)), w(static_cast<std::size_t>(p.n));
  SplitMix64 rng(6);
  for (index_t i = 0; i < p.n; ++i) {
    u[static_cast<std::size_t>(i)] = float(rng.next_in(0.3, 2.7));
    v[static_cast<std::size_t>(i)] = float(rng.next_in(0.3, 2.7));
    w[static_cast<std::size_t>(i)] = float(rng.next_in(0.3, 2.7));
  }
  inst.ku = u.data();
  inst.kv = v.data();
  inst.kw = w.data();
  NpdpOptions opts;
  opts.block_side = p.bs;
  opts.kernel = p.kernel;
  const auto values = solve_blocked(inst, opts);
  for (index_t i = 0; i < inst.n; ++i)
    for (index_t j = i + 1; j < inst.n; ++j) {
      const index_t k = split_at(values, inst, i, j);
      EXPECT_TRUE(k == -1 || (i < k && k < j))
          << "(" << i << "," << j << ") -> " << k;
    }
  double total = 0;
  index_t splits = 0;
  visit_splits(values, inst, 0, inst.n - 1,
               [&](index_t i, index_t k, index_t j) {
                 total += double(u[static_cast<std::size_t>(i)]) *
                          v[static_cast<std::size_t>(k)] *
                          w[static_cast<std::size_t>(j)];
                 ++splits;
               });
  // Every span of two or more boundaries splits: n - 2 products.
  EXPECT_EQ(splits, inst.n - 2);
  const double root = values.at(0, inst.n - 1);
  EXPECT_NEAR(total, root, 1e-5 * root);
}

INSTANTIATE_TEST_SUITE_P(
    Geometries, ArgminTest,
    ::testing::Values(ArgCase{8, 8, KernelKind::Native},
                      ArgCase{40, 8, KernelKind::Native},
                      ArgCase{40, 8, KernelKind::Scalar},
                      ArgCase{64, 16, KernelKind::Wide},
                      ArgCase{100, 24, KernelKind::Native},
                      ArgCase{65, 16, KernelKind::Native}),
    [](const auto& info) {
      return "n" + std::to_string(info.param.n) + "_bs" +
             std::to_string(info.param.bs) + "_" +
             std::string(kernel_kind_name(info.param.kernel));
    });

TEST(Traceback, VisitSplitsReconstructsMatrixChainParenthesization) {
  // CLRS 15.2: ((A0 (A1 A2)) ((A3 A4) A5)).
  const std::vector<double> p{30, 35, 15, 5, 10, 20, 25};
  const auto inst = matrix_chain_instance(p);
  NpdpOptions opts;
  opts.block_side = 8;
  const auto values = solve_blocked(inst, opts);

  EXPECT_EQ(values.at(0, 6), 15125.0);
  // Root split at boundary 3; sub-splits 2 and 5.
  EXPECT_EQ(split_at(values, inst, 0, 6), 3);
  EXPECT_EQ(split_at(values, inst, 0, 3), 1);  // A0 | (A1 A2)
  EXPECT_EQ(split_at(values, inst, 3, 6), 5);

  index_t splits = 0;
  visit_splits(values, inst, 0, 6, [&](index_t i, index_t k, index_t j) {
    EXPECT_LT(i, k);
    EXPECT_LT(k, j);
    ++splits;
  });
  // A chain of 6 matrices has exactly 5 internal products, but spans of
  // length 1 are seeds: splits occur only on spans >= 2.
  EXPECT_EQ(splits, 5);
}

TEST(Traceback, SplitCostsAddUpForMatrixChain) {
  // Sum of p[i]*p[k]*p[j] over the split tree must equal the total cost.
  SplitMix64 rng(77);
  std::vector<double> p(41);
  for (auto& x : p) x = double(rng.next_below(30) + 1);
  const auto inst = matrix_chain_instance(p);
  NpdpOptions opts;
  opts.block_side = 8;
  const auto values = solve_blocked(inst, opts);

  double total = 0;
  visit_splits(values, inst, 0, inst.n - 1,
               [&](index_t i, index_t k, index_t j) {
                 total += p[static_cast<std::size_t>(i)] *
                          p[static_cast<std::size_t>(k)] *
                          p[static_cast<std::size_t>(j)];
               });
  EXPECT_NEAR(total, double(values.at(0, inst.n - 1)), 1e-6);
}

TEST(Traceback, ChainOfNoMatricesRendersNothing) {
  // One boundary node: an empty chain has an empty parenthesization.
  const std::vector<double> p{7};
  NpdpOptions opts;
  opts.block_side = 8;
  EXPECT_EQ(solve_matrix_chain(p, opts).parenthesization, "");
  EXPECT_EQ(solve_matrix_chain_reference(p).parenthesization, "");
}

TEST(Traceback, ParallelAgreesOnValuesEvenIfTiesDiffer) {
  NpdpInstance<float> inst;
  inst.n = 96;
  inst.init = [](index_t i, index_t j) {
    return random_init_value<float>(3, i, j);
  };
  NpdpOptions opts;
  opts.block_side = 16;
  const auto serial = solve_blocked(inst, opts);
  check_certificate(inst, serial);
}

}  // namespace
}  // namespace cellnpdp
