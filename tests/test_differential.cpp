// Differential matrix: every registered backend (in-process `distributed`
// and functional `cellsim` included) x every semiring and instance mode
// it advertises x 1, 2 and 4 threads, against the semiring-generic golden
// model solve_reference_any, cell for cell and bit for bit.
//
// Block side 12 gives the float kernels (W = 4) three tiles per memory
// block, an odd count, so stage 2's recursion splits a side one tile wide
// and rounds a half down in every off-diagonal block. Counting runs on
// instances whose every intermediate stays an integer below 2^24, so float
// addition is exact in any order (the setup asserts this in double).
#include <gtest/gtest.h>

#include <cstring>
#include <string>
#include <vector>

#include "backend/solver_backend.hpp"
#include "common/rng.hpp"
#include "core/reference.hpp"
#include "dist/in_process.hpp"
#include "layout/convert.hpp"

namespace cellnpdp {
namespace {

constexpr index_t kBlock = 12;
constexpr index_t kSelectionN = 50;  // five memory blocks per side
constexpr index_t kCountingN = 14;   // two memory blocks per side

enum class Mode { Pure, Weighted, Separable, KTerm };

const char* mode_name(Mode m) {
  switch (m) {
    case Mode::Pure: return "pure";
    case Mode::Weighted: return "weighted";
    case Mode::Separable: return "separable";
    case Mode::KTerm: return "k-term";
  }
  return "?";
}

/// An instance of (semiring, mode) with the separable factors it points
/// at. Factors and weights are small integers, so u*v*w is exact and no
/// fused multiply-add can move a bit. Counting counts the binary trees
/// over the superdiagonal (Catalan numbers), scaled by factors and weights
/// of 1 or 2 on a sparse set of indices.
template <class T>
struct Case {
  NpdpInstance<T> inst;
  std::vector<T> factors;

  Case(SemiringId sr, Mode mode) {
    const bool counting = sr == SemiringId::Counting;
    const index_t n = counting ? kCountingN : kSelectionN;
    inst.n = n;
    inst.semiring = sr;
    if (counting) {
      inst.init = [](index_t i, index_t j) { return T(j == i + 1 ? 1 : 0); };
    } else {
      inst.init = [sr](index_t i, index_t j) {
        return semiring_init_value<T>(sr, 41, i, j);
      };
    }
    const auto small = [counting, sr](index_t x) {
      if (counting) return T(x % 11 == 0 ? 2 : 1);
      return T(sr == SemiringId::ViterbiLog ? -(x % 3) : x % 3);
    };
    switch (mode) {
      case Mode::Pure: break;
      case Mode::Weighted:
        inst.weight = [small](index_t i, index_t j) {
          return small(i + 2 * j);
        };
        break;
      case Mode::Separable:
        factors.resize(static_cast<std::size_t>(3 * n));
        for (index_t x = 0; x < 3 * n; ++x)
          factors[static_cast<std::size_t>(x)] =
              counting ? small(x) : T(1 + x % 3);
        inst.ku = factors.data();
        inst.kv = factors.data() + n;
        inst.kw = factors.data() + 2 * n;
        break;
      case Mode::KTerm:
        inst.kterm = [small](index_t i, index_t k, index_t j) {
          return small(i + 3 * k + 7 * j);
        };
        break;
    }
  }
  Case(const Case&) = delete;
  Case& operator=(const Case&) = delete;
};

/// Largest cell of the double-precision golden model for (sr, mode): the
/// counting cases must stay below 2^24 for float to be exact.
double largest_counting_cell(Mode mode) {
  const Case<double> c(SemiringId::Counting, mode);
  const auto ref = solve_reference_any(c.inst);
  double top = 0;
  for (index_t i = 0; i < ref.size(); ++i)
    for (index_t j = i; j < ref.size(); ++j) top = std::max(top, ref.at(i, j));
  return top;
}

template <class Got>
void expect_bits(const TriangularMatrix<float>& ref, const Got& got,
                 const std::string& what) {
  ASSERT_EQ(ref.size(), got.size()) << what;
  index_t bad = 0;
  for (index_t i = 0; i < ref.size() && bad < 3; ++i)
    for (index_t j = i; j < ref.size() && bad < 3; ++j) {
      const float want = ref.at(i, j);
      const float have = got.at(i, j);
      if (std::memcmp(&want, &have, sizeof(float)) != 0) {
        ADD_FAILURE() << what << ": cell (" << i << "," << j
                      << ") ref=" << want << " got=" << have;
        ++bad;
      }
    }
}

constexpr SemiringId kSemirings[] = {SemiringId::MinPlus,
                                     SemiringId::MaxPlus,
                                     SemiringId::Counting,
                                     SemiringId::ViterbiLog};
constexpr Mode kModes[] = {Mode::Pure, Mode::Weighted, Mode::Separable,
                           Mode::KTerm};

TEST(DifferentialMatrix, CountingCasesStayExactInFloat) {
  for (Mode mode : kModes)
    EXPECT_LT(largest_counting_cell(mode), double(1 << 24)) << mode_name(mode);
}

TEST(DifferentialMatrix, EveryBackendMatchesTheGoldenModel) {
  dist::register_distributed_backend();
  index_t solves = 0;
  for (SemiringId sr : kSemirings) {
    for (Mode mode : kModes) {
      const Case<float> c(sr, mode);
      const TriangularMatrix<float> ref = solve_reference_any(c.inst);
      for (const backend::SolverBackend* b :
           backend::BackendRegistry::instance().list()) {
        const backend::Capabilities caps = b->caps();
        if (!backend::supports_semiring(caps, sr)) continue;
        if (mode != Mode::Pure && !caps.weighted) continue;
        // Backends that ignore tuning.threads run once.
        const std::vector<std::size_t> threads =
            caps.parallel ? std::vector<std::size_t>{1, 2, 4}
                          : std::vector<std::size_t>{1};
        for (std::size_t t : threads) {
          const std::string what = std::string(b->name()) + " " +
                                   std::string(semiring_name(sr)) + " " +
                                   mode_name(mode) + " threads=" +
                                   std::to_string(t);
          ExecutionContext ctx;
          ctx.tuning.block_side = kBlock;
          ctx.tuning.threads = t;
          const backend::BackendResult r = b->solve(c.inst, ctx);
          ASSERT_EQ(r.status, SolveStatus::Ok) << what;
          ASSERT_TRUE(r.tri != nullptr || r.blocked != nullptr) << what;
          if (r.tri != nullptr) expect_bits(ref, *r.tri, what);
          if (r.blocked != nullptr) expect_bits(ref, *r.blocked, what);
          ++solves;
        }
      }
    }
  }
  // Every backend ran at least its pure min-plus case.
  EXPECT_GE(solves, index_t(backend::BackendRegistry::instance().list().size()));
}

}  // namespace
}  // namespace cellnpdp
