// Semiring-generic engine property tests: every semiring instantiation of
// the blocked SIMD engine must match the semiring-generic scalar reference
// element-for-element with NO tolerance, across block sizes, kernels,
// thread counts, fault recovery, and instance modes (pure / weighted /
// separable / general k-term) — and solve a garbage-filled arena exactly
// as it solves a fresh table.
//
// Bit-exactness across the blocked/SIMD reordering holds because:
//   - min-plus / max-plus / viterbi-log are idempotent selections over
//     identically-computed candidates (each candidate value is the same
//     float expression in every path, and min/max are order-insensitive);
//   - counting is exact because the tests keep every intermediate an
//     integer small enough for the cell type's mantissa, and integer
//     addition in floating point is associative while it stays exact.
#include <gtest/gtest.h>

#include <chrono>
#include <cmath>
#include <cstring>
#include <string>
#include <vector>

#include "backend/solver_backend.hpp"
#include "common/rng.hpp"
#include "core/maxplus.hpp"
#include "core/reference.hpp"
#include "core/solve.hpp"
#include "layout/convert.hpp"
#include "resilience/fault_injector.hpp"

namespace cellnpdp {
namespace {

enum class Mode { Pure, Weighted, Separable, KTerm };

constexpr Mode kModes[] = {Mode::Pure, Mode::Weighted, Mode::Separable,
                           Mode::KTerm};

constexpr SemiringId kAll[] = {SemiringId::MinPlus, SemiringId::MaxPlus,
                               SemiringId::Counting, SemiringId::ViterbiLog};

/// Canonical instance for a (semiring, mode) pair. The separable-factor
/// and weight storage must outlive the instance.
template <class T>
NpdpInstance<T> make_instance(SemiringId sr, Mode mode, index_t n,
                              std::uint64_t seed, std::vector<T>* factors) {
  NpdpInstance<T> inst;
  inst.n = n;
  inst.semiring = sr;
  inst.init = [sr, seed](index_t i, index_t j) {
    return semiring_init_value<T>(sr, seed, i, j);
  };
  if (mode == Mode::Weighted) {
    // Small per-cell weights in the flavour of the semiring: additive
    // semirings take small magnitudes of either sign, counting takes
    // small positive integers (keeping products integral and >= 1).
    inst.weight = [sr](index_t i, index_t j) {
      const index_t r = (i + 2 * j) % 3;
      switch (sr) {
        case SemiringId::Counting: return T(1 + r);
        case SemiringId::ViterbiLog: return T(-r);
        default: return T(r);
      }
    };
  } else if (mode == Mode::Separable) {
    factors->assign(static_cast<std::size_t>(3 * n), T(0));
    SplitMix64 rng(seed * 31 + 7);
    for (index_t i = 0; i < 3 * n; ++i) {
      // Counting factors stay in {1, 2} so cells grow slowly and every
      // intermediate remains an exact integer; the additive semirings
      // take small mixed-sign reals.
      (*factors)[static_cast<std::size_t>(i)] =
          sr == SemiringId::Counting ? T(1 + rng.next_below(2))
                                     : T(rng.next_in(-2.0, 2.0));
    }
    inst.ku = factors->data();
    inst.kv = factors->data() + n;
    inst.kw = factors->data() + 2 * n;
  } else if (mode == Mode::KTerm) {
    // An integer-valued term, so every candidate is exact: counting takes
    // 1 or 2, the others 0..2 (negated for viterbi-log's log-probs).
    inst.kterm = [sr](index_t i, index_t k, index_t j) {
      const index_t x = i + 3 * k + 7 * j;
      switch (sr) {
        case SemiringId::Counting: return T(x % 11 == 0 ? 2 : 1);
        case SemiringId::ViterbiLog: return T(-(x % 3));
        default: return T(x % 3);
      }
    };
  }
  return inst;
}

/// EXPECT_EQ every triangle cell (exact equality — NaN-free by
/// construction, so == is the right comparison).
template <class Ref, class Got>
void expect_identical(const Ref& ref, const Got& got, const char* what) {
  ASSERT_EQ(ref.size(), got.size());
  index_t bad = 0;
  for (index_t i = 0; i < ref.size() && bad < 5; ++i)
    for (index_t j = i; j < ref.size() && bad < 5; ++j)
      if (!(ref.at(i, j) == got.at(i, j))) {
        ADD_FAILURE() << what << ": cell (" << i << "," << j
                      << ") ref=" << ref.at(i, j) << " got=" << got.at(i, j);
        ++bad;
      }
}

TEST(SemiringNames, RoundTrip) {
  for (SemiringId sr : kAll) {
    SemiringId back;
    ASSERT_TRUE(semiring_from_name(semiring_name(sr), &back));
    EXPECT_EQ(back, sr);
  }
  SemiringId out;
  EXPECT_FALSE(semiring_from_name("tropical-deluxe", &out));
}

TEST(SemiringConstants, ZeroAnnihilatesAndOneIsNeutral) {
  with_semiring<float>(SemiringId::MinPlus, [](auto) {});
  for (SemiringId sr : kAll) {
    with_semiring<double>(sr, [](auto s) {
      using S = decltype(s);
      const double x = 3.25;
      EXPECT_EQ(S::plus(S::zero(), x), x);
      EXPECT_EQ(S::times(S::one(), x), x);
    });
  }
}

TEST(SemiringReference, MinPlusInstantiationMatchesLegacyReference) {
  for (Mode mode : {Mode::Pure, Mode::Weighted, Mode::Separable}) {
    std::vector<float> factors;
    const auto inst =
        make_instance<float>(SemiringId::MinPlus, mode, 61, 5, &factors);
    const auto legacy = solve_reference(inst);
    const auto generic = solve_reference_semiring<MinPlusSemiring<float>>(inst);
    expect_identical(legacy, generic, "legacy vs generic reference");
  }
}

// The core property sweep: blocked SIMD engine == generic scalar
// reference, for every semiring x mode x block size; general k-term
// instances, whose scalar products take the same recursion, sweep every
// kernel kind too. Counting runs in double at sizes where every
// intermediate is an exact integer (see the header comment); the
// selection semirings sweep larger float tables. Block side 4 gives
// counting three blocks per side, so its stage 1 runs, and a block
// narrower than one register panel. Sides 12 and 20 give the float kernels
// (W = 4) 3 and 5 tiles per block: odd counts, which stage 2's recursion
// splits unevenly and down to a side one tile wide.
TEST(SemiringProperty, BlockedMatchesReferenceAcrossBlockSizes) {
  for (SemiringId sr : kAll) {
    const bool counting = sr == SemiringId::Counting;
    for (Mode mode : kModes) {
      for (index_t bs : {4, 8, 12, 16, 20, 24, 32}) {
        for (KernelKind kind :
             {KernelKind::Native, KernelKind::Scalar, KernelKind::Wide}) {
          if (mode != Mode::KTerm && kind != KernelKind::Native) continue;
          const index_t width = counting ? cb_kernel<double>(kind).width
                                         : cb_kernel<float>(kind).width;
          if (bs % width != 0) continue;
          NpdpOptions opts;
          opts.block_side = bs;
          opts.kernel = kind;
          const std::string what = std::string(semiring_name(sr)) + "/mode" +
                                   std::to_string(static_cast<int>(mode)) +
                                   "/bs" + std::to_string(bs) + "/" +
                                   std::string(kernel_kind_name(kind));
          if (counting) {
            // Sizes chosen so the largest cell stays far below 2^53 (cell
            // magnitude grows ~3-5 bits per span step depending on mode).
            const index_t n = mode == Mode::Pure        ? 12
                              : mode == Mode::Weighted  ? 10
                                                        : 9;
            std::vector<double> factors;
            const auto inst =
                make_instance<double>(sr, mode, n, 3, &factors);
            const auto ref = solve_reference_any(inst);
            const auto got = solve_blocked(inst, opts);
            expect_identical(ref, to_triangular(got), what.c_str());
          } else {
            std::vector<float> factors;
            const auto inst =
                make_instance<float>(sr, mode, 75, 3, &factors);
            const auto ref = solve_reference_any(inst);
            const auto got = solve_blocked(inst, opts);
            expect_identical(ref, to_triangular(got), what.c_str());
          }
        }
      }
    }
  }
  // Counting across off-diagonal blocks deep enough to recurse: the
  // binary trees over the superdiagonal (Catalan numbers, C(30) < 2^53 at
  // n = 32) stay exact integers in double. The double kernel (W = 2) has
  // 6 and 10 tiles per block side at 12 and 20, so an off-diagonal block
  // recurses three and four levels.
  NpdpInstance<double> catalan;
  catalan.n = 32;
  catalan.semiring = SemiringId::Counting;
  catalan.init = [](index_t i, index_t j) { return j == i + 1 ? 1.0 : 0.0; };
  const auto ref = solve_reference_any(catalan);
  ASSERT_EQ(ref.at(0, catalan.n - 1), 3814986502092304.0);  // C(30)
  for (index_t bs : {12, 20}) {
    NpdpOptions opts;
    opts.block_side = bs;
    expect_identical(ref, to_triangular(solve_blocked(catalan, opts)),
                     "counting, Catalan");
  }
}

TEST(SemiringProperty, EveryKernelKindMatchesReference) {
  for (SemiringId sr : kAll) {
    const bool counting = sr == SemiringId::Counting;
    for (KernelKind kind :
         {KernelKind::Scalar, KernelKind::Native, KernelKind::Wide}) {
      NpdpOptions opts;
      opts.block_side = 16;
      opts.kernel = kind;
      if (counting) {
        std::vector<double> factors;
        const auto inst =
            make_instance<double>(sr, Mode::Pure, 12, 11, &factors);
        const auto ref = solve_reference_any(inst);
        const auto got = solve_blocked(inst, opts);
        expect_identical(ref, to_triangular(got), "counting kernel");
      } else {
        std::vector<float> factors;
        const auto inst =
            make_instance<float>(sr, Mode::Weighted, 70, 11, &factors);
        const auto ref = solve_reference_any(inst);
        const auto got = solve_blocked(inst, opts);
        expect_identical(ref, to_triangular(got), "kernel sweep");
      }
    }
  }
}

// The parallel schedule relaxes blocks in a different global order; for
// the non-idempotent counting semiring this is the test that the
// exactly-once coverage argument survives tier-2 scheduling.
TEST(SemiringProperty, ParallelSolveMatchesReference) {
  for (SemiringId sr : kAll) {
    const bool counting = sr == SemiringId::Counting;
    NpdpOptions opts;
    opts.block_side = 8;
    opts.threads = 4;
    opts.sched_side = 2;
    if (counting) {
      std::vector<double> factors;
      const auto inst = make_instance<double>(sr, Mode::Pure, 12, 9, &factors);
      const auto ref = solve_reference_any(inst);
      expect_identical(ref, to_triangular(solve_blocked(inst, opts)),
                       "counting parallel");
    } else {
      std::vector<float> factors;
      const auto inst = make_instance<float>(sr, Mode::Weighted, 90, 9,
                                             &factors);
      const auto ref = solve_reference_any(inst);
      expect_identical(ref, to_triangular(solve_blocked(inst, opts)),
                       "parallel");
    }
  }
}

// The self-checking backend heals a seeded plan of injected throws and
// block corruption on every semiring and mode, at one and four workers,
// and lands byte-identical to the clean one-worker solve — which is the
// reference itself wherever float arithmetic is exact (everywhere but
// float counting, whose cells outgrow 2^24; the double sweeps above pin
// counting to the reference).
TEST(SemiringProperty, ResilientBackendHealsFaultsOnEverySemiring) {
  const backend::SolverBackend& resilient =
      backend::require_backend("resilient");
  for (SemiringId sr : kAll) {
    ASSERT_TRUE(backend::supports_semiring(resilient.caps(), sr));
    const bool counting = sr == SemiringId::Counting;
    for (Mode mode : {Mode::Pure, Mode::Weighted, Mode::Separable}) {
      std::vector<float> factors;
      const auto inst =
          make_instance<float>(sr, mode, counting ? 20 : 75, 3, &factors);
      NpdpOptions opts;
      opts.block_side = 8;
      const auto clean = to_triangular(solve_blocked(inst, opts));
      if (!counting)
        expect_identical(solve_reference_any(inst), clean, "clean solve");
      for (std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
        resilience::FaultPlan plan;
        plan.seed = 17 + threads;
        plan.rules.push_back({FaultSite::TaskThrow, 0.2, -1, 0});
        plan.rules.push_back({FaultSite::BlockCorrupt, 0.2, -1, 0});
        resilience::FaultInjectionScope scope(std::move(plan));
        ExecutionContext ctx;
        ctx.tuning = opts;
        ctx.tuning.threads = threads;
        ctx.retry.max_attempts = 16;
        ctx.retry.base_backoff = std::chrono::milliseconds(0);
        const auto r = resilient.solve(inst, ctx);
        ASSERT_EQ(r.status, SolveStatus::Ok);
        ASSERT_NE(r.blocked, nullptr);
        const std::string what = std::string(semiring_name(sr)) + "/mode" +
                                 std::to_string(static_cast<int>(mode)) +
                                 "/" + std::to_string(threads) + "t";
        expect_identical(clean, to_triangular(*r.blocked), what.c_str());
      }
    }
  }
}

/// Overwrites every cell of `mat`, padding and below-diagonal cells
/// included, with deterministic garbage; pad() is left as it was.
template <class T>
void fill_garbage(BlockedTriangularMatrix<T>& mat, std::uint64_t seed) {
  SplitMix64 rng(seed);
  for (index_t c = 0; c < mat.total_cells(); ++c)
    mat.data()[c] = T(rng.next_in(-1e6, 1e6));
}

template <class T>
bool same_bytes(const BlockedTriangularMatrix<T>& a,
                const BlockedTriangularMatrix<T>& b) {
  return a.total_cells() == b.total_cells() &&
         std::memcmp(a.data(), b.data(),
                     static_cast<std::size_t>(a.total_cells()) * sizeof(T)) ==
             0;
}

/// Solves `inst` into a garbage-filled table padded with the semiring zero
/// and requires every byte, padding included, to equal a fresh solve.
template <class T>
void expect_dirty_arena_solves_fresh(const NpdpInstance<T>& inst,
                                     const NpdpOptions& opts, bool checksums,
                                     const std::string& what) {
  const auto fresh = solve_blocked(inst, opts);
  BlockedTriangularMatrix<T> dirty(inst.n, opts.block_side,
                                   semiring_zero<T>(inst.semiring));
  fill_garbage(dirty, 99);
  ExecutionContext ctx;
  ctx.tuning = opts;
  ASSERT_EQ(solve_blocked_into(dirty, inst, ctx, checksums), SolveStatus::Ok)
      << what;
  EXPECT_TRUE(same_bytes(fresh, dirty)) << what;
}

// solve_blocked_into seeds every block as it relaxes it, so an arena only
// needs its pad() to be the semiring zero, not a table full of it. Counting
// runs in double at the property sweep's exact sizes; block side 4 gives it
// three blocks per side, padding for n = 10 and 9.
TEST(SemiringProperty, DirtyArenaSolvesLikeAFreshTable) {
  for (SemiringId sr : kAll) {
    const bool counting = sr == SemiringId::Counting;
    for (Mode mode : kModes) {
      for (std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
        for (bool checksums : {false, true}) {
          NpdpOptions opts;
          opts.block_side = counting ? 4 : 16;
          opts.threads = threads;
          const std::string what =
              std::string(semiring_name(sr)) + "/mode" +
              std::to_string(static_cast<int>(mode)) + "/" +
              std::to_string(threads) + "t" + (checksums ? "/checksums" : "");
          if (counting) {
            const index_t n = mode == Mode::Pure        ? 12
                              : mode == Mode::Weighted  ? 10
                                                        : 9;
            std::vector<double> factors;
            expect_dirty_arena_solves_fresh(
                make_instance<double>(sr, mode, n, 3, &factors), opts,
                checksums, what);
          } else {
            std::vector<float> factors;
            expect_dirty_arena_solves_fresh(
                make_instance<float>(sr, mode, 75, 3, &factors), opts,
                checksums, what);
          }
        }
      }
    }
  }
}

TEST(SemiringCounting, AgreesWithIndependentCombinatorics) {
  // With init == 1 everywhere and no weights, pure-mode counting solves
  //   d[i][j] = seed(=2 for j>i: init + init*d[i][i]) + sum_k d[i][k]d[k][j]
  // which a direct O(n^3) evaluation reproduces; this pins the engine to
  // an arithmetic meaning, not just to the shared reference formula.
  NpdpInstance<double> inst;
  inst.n = 12;
  inst.semiring = SemiringId::Counting;
  inst.init = [](index_t, index_t) { return 1.0; };
  std::vector<std::vector<double>> d(
      static_cast<std::size_t>(inst.n),
      std::vector<double>(static_cast<std::size_t>(inst.n), 0.0));
  for (index_t i = 0; i < inst.n; ++i)
    d[static_cast<std::size_t>(i)][static_cast<std::size_t>(i)] = 1.0;
  for (index_t span = 1; span < inst.n; ++span)
    for (index_t i = 0; i + span < inst.n; ++i) {
      const index_t j = i + span;
      double acc = 2.0;  // init + init * d[i][i]
      for (index_t k = i + 1; k < j; ++k)
        acc += d[static_cast<std::size_t>(i)][static_cast<std::size_t>(k)] *
               d[static_cast<std::size_t>(k)][static_cast<std::size_t>(j)];
      d[static_cast<std::size_t>(i)][static_cast<std::size_t>(j)] = acc;
    }
  NpdpOptions opts;
  opts.block_side = 8;
  const auto got = solve_blocked(inst, opts);
  for (index_t i = 0; i < inst.n; ++i)
    for (index_t j = i; j < inst.n; ++j)
      EXPECT_EQ(got.at(i, j),
                d[static_cast<std::size_t>(i)][static_cast<std::size_t>(j)])
          << i << "," << j;
}

TEST(SemiringViterbiLog, MostProbableDerivationInLogSpace) {
  // viterbi-log runs max-plus arithmetic over log-probs: exponentiating
  // the solved cell must equal the max over split products of
  // probabilities (checked on a small instance against a direct search).
  NpdpInstance<float> inst;
  inst.n = 9;
  inst.semiring = SemiringId::ViterbiLog;
  inst.init = [](index_t i, index_t j) {
    return semiring_init_value<float>(SemiringId::ViterbiLog, 21, i, j) /
           100.0f;  // log-probs in (-1, 0]
  };
  NpdpOptions opts;
  opts.block_side = 8;
  const auto got = solve_blocked(inst, opts);
  const auto ref = solve_reference_any(inst);
  expect_identical(ref, to_triangular(got), "viterbi-log");
  for (index_t i = 0; i < inst.n; ++i)
    for (index_t j = i; j < inst.n; ++j) {
      EXPECT_LE(got.at(i, j), 0.0f);
      EXPECT_GE(got.at(i, j), inst.init(i, j));  // max can only raise
    }
}

TEST(SemiringEngine, InstantiationMismatchThrows) {
  NpdpInstance<float> inst;
  inst.n = 8;
  inst.semiring = SemiringId::Counting;
  inst.init = [](index_t, index_t) { return 1.0f; };
  NpdpOptions opts;
  opts.block_side = 8;
  BlockedTriangularMatrix<float> mat(inst.n, opts.block_side);  // +inf pad
  // The matrix carries min-plus padding but the instance asks for
  // counting: the engine must refuse rather than read poisoned padding.
  ExecutionContext ctx;
  ctx.tuning = opts;
  EXPECT_THROW(solve_blocked_into(mat, inst, ctx),
               std::invalid_argument);
  mat.reset(semiring_zero<float>(SemiringId::Counting));
  EXPECT_EQ(solve_blocked_into(mat, inst, ctx), SolveStatus::Ok);
}

TEST(SemiringMaxPlus, NativeMatchesNegationAdapterBitForBit) {
  // Float negation is exact, so the historical negate-and-solve adapter
  // is a bit-level oracle for the native max-plus instantiation.
  for (index_t n : {5, 40, 77}) {
    NpdpInstance<float> inst;
    inst.n = n;
    inst.init = [n](index_t i, index_t j) {
      return random_init_value<float>(900 + static_cast<std::uint64_t>(n), i,
                                      j) -
             50.0f;
    };
    NpdpOptions opts;
    opts.block_side = 16;
    const auto native = solve_blocked_maxplus(inst, opts);
    const auto negated = solve_blocked_maxplus_via_negation(inst, opts);
    expect_identical(to_triangular(negated), to_triangular(native),
                     "native vs negation");
  }
}

}  // namespace
}  // namespace cellnpdp
